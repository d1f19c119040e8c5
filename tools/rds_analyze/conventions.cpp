#include "tools/rds_analyze/conventions.hpp"

#include <algorithm>
#include <array>
#include <string_view>
#include <vector>

namespace rds::analyze {
namespace {

constexpr std::array<std::string_view, 10> kAtomicOps = {
    "load",      "store",    "exchange",    "fetch_add",
    "fetch_sub", "fetch_and", "fetch_or",   "fetch_xor",
    "compare_exchange_weak", "compare_exchange_strong"};

constexpr std::array<std::string_view, 6> kNondeterministic = {
    "random_device", "srand", "rand",
    "system_clock",  "high_resolution_clock", "time"};

constexpr std::array<std::string_view, 3> kMetricFactories = {
    "counter", "gauge", "histogram"};

template <std::size_t N>
bool in_set(const std::array<std::string_view, N>& set,
            const std::string& word) {
  return std::find(set.begin(), set.end(), word) != set.end();
}

/// True when `rel` has a directory component named `dir`.
bool has_dir(std::string_view rel, std::string_view dir) {
  for (std::size_t slash = rel.find('/'); slash != std::string_view::npos;
       slash = rel.find('/')) {
    if (rel.substr(0, slash) == dir) return true;
    rel.remove_prefix(slash + 1);
  }
  return false;
}

/// `noexcept` in a signature, unless it is `noexcept(false)`.
bool declared_noexcept(const std::vector<Tok>& decl) {
  for (std::size_t j = 0; j < decl.size(); ++j) {
    if (!is_ident(decl[j], "noexcept")) continue;
    const bool conditional_false = j + 2 < decl.size() &&
                                   is_punct(decl[j + 1], "(") &&
                                   is_ident(decl[j + 2], "false");
    if (!conditional_false) return true;
  }
  return false;
}

}  // namespace

void check_conventions(const FileModel& fm, const std::string& rel,
                       const std::set<std::string>& rcu_members,
                       const EmitFn& emit) {
  if (!rel.starts_with("src/") && !rel.starts_with("tools/") &&
      !rel.starts_with("bench/")) {
    return;  // tests, examples and the benchmark driver are not judged
  }
  const bool is_header = rel.ends_with(".hpp") || rel.ends_with(".h") ||
                         rel.ends_with(".hh");
  const bool is_placement = has_dir(rel, "placement") || has_dir(rel, "core");

  // ---- result-path-throw: a lambda is its own function -------------------
  for (const Function& fn : fm.functions) {
    const std::string& name = fn.is_lambda ? fn.bound_to : fn.name;
    const bool try_path = name.starts_with("try_");
    if (!try_path && !declared_noexcept(fn.decl)) continue;
    for (const Tok& t : fn.body) {
      if (!is_ident(t, "throw")) continue;
      emit(t.line, "result-path-throw",
           "'" + (name.empty() ? std::string("(lambda)") : name) + "' is a " +
               (try_path ? "Result-returning try_* path"
                         : "noexcept function") +
               "; report the error, do not throw");
    }
  }

  // ---- token rules over the whole file -----------------------------------
  std::set<int> using_in_functions;  // lines of function-local `using`
  for (const Function& fn : fm.functions) {
    for (const Tok& t : fn.body) {
      if (is_ident(t, "using")) using_in_functions.insert(t.line);
    }
  }
  if (is_header &&
      std::none_of(fm.toks.begin(), fm.toks.end(), [](const Tok& t) {
        return t.kind == Kind::kPreproc &&
               t.text.find("pragma") != std::string::npos &&
               t.text.find("once") != std::string::npos;
      })) {
    emit(1, "header-hygiene", "header is missing #pragma once");
  }

  std::vector<const Tok*> code;  // comments and preprocessor lines dropped
  for (const Tok& t : fm.toks) {
    if (t.kind != Kind::kComment && t.kind != Kind::kPreproc) {
      code.push_back(&t);
    }
  }
  const auto at = [&](std::size_t k) -> const Tok* {
    return k < code.size() ? code[k] : nullptr;
  };
  for (std::size_t k = 0; k < code.size(); ++k) {
    const Tok& t = *code[k];
    if (t.kind != Kind::kIdent) continue;

    if (is_header && t.text == "using" && at(k + 1) != nullptr &&
        is_ident(*at(k + 1), "namespace") &&
        !using_in_functions.contains(t.line)) {
      emit(t.line, "header-hygiene",
           "'using namespace' at namespace scope in a header leaks names "
           "into every includer");
    }

    if (is_placement && in_set(kNondeterministic, t.text)) {
      emit(t.line, "placement-determinism",
           "'" + t.text +
               "' in placement code: placement must be a deterministic "
               "function of (address, configuration)");
    }

    if (in_set(kAtomicOps, t.text) && k >= 2 &&
        (is_punct(*code[k - 1], ".") || is_punct(*code[k - 1], "->")) &&
        at(k + 1) != nullptr && is_punct(*at(k + 1), "(") &&
        !rcu_members.contains(code[k - 2]->text)) {
      int depth = 0;
      int orders = 0;
      for (std::size_t j = k + 1; j < code.size() && j < k + 512; ++j) {
        const Tok& a = *code[j];
        if (is_punct(a, "(")) ++depth;
        if (is_punct(a, ")") && --depth == 0) break;
        if (a.kind == Kind::kIdent &&
            a.text.find("memory_order") != std::string::npos) {
          ++orders;
        }
      }
      const bool is_cas = t.text.starts_with("compare_exchange");
      if (orders < (is_cas ? 2 : 1)) {
        emit(t.line, "atomic-memory-order",
             "atomic " + t.text + "() without " +
                 (is_cas ? "explicit success AND failure memory orders"
                         : "an explicit memory order") +
                 "; spell out the weakest order that is correct");
      }
    }

    if (in_set(kMetricFactories, t.text) && at(k + 2) != nullptr &&
        is_punct(*at(k + 1), "(") && at(k + 2)->kind == Kind::kString &&
        !at(k + 2)->text.starts_with("\"rds_")) {
      emit(at(k + 2)->line, "metrics-naming",
           "metric family " + at(k + 2)->text +
               " does not follow the rds_* naming scheme (docs/metrics.md)");
    }
  }
}

}  // namespace rds::analyze
