// Negative-path contract of make_scheme_from_name: strict parsing with
// messages that name what was wrong (src/storage/redundancy_scheme.hpp).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/storage/redundancy_scheme.hpp"

namespace rds {
namespace {

/// Runs the factory, asserting std::invalid_argument whose message contains
/// both `needle` and the offending input (so an operator reading a failed
/// recovery log can see WHAT was rejected and WHY).
void expect_rejected(const std::string& name, const std::string& needle) {
  SCOPED_TRACE("name='" + name + "'");
  try {
    (void)make_scheme_from_name(name);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos)
        << "message lacks '" << needle << "': " << what;
  }
}

TEST(SchemeNameParsing, RejectsEmptyName) {
  expect_rejected("", "unknown scheme kind");
}

TEST(SchemeNameParsing, RejectsUnknownKind) {
  expect_rejected("raid0", "unknown scheme kind");
  expect_rejected("raid0(k=2)", "unknown scheme kind");
  expect_rejected("MIRROR(k=2)", "unknown scheme kind");  // case-sensitive
  expect_rejected("mirror[k=2]", "unknown scheme kind");
}

TEST(SchemeNameParsing, RejectsDegenerateShardCounts) {
  // The scheme constructors' own validation propagates with its message.
  EXPECT_THROW((void)make_scheme_from_name("reed-solomon(0+0)"),
               std::invalid_argument);
  EXPECT_THROW((void)make_scheme_from_name("mirror(k=0)"),
               std::invalid_argument);
}

TEST(SchemeNameParsing, RejectsOverflowDigits) {
  expect_rejected("mirror(k=99999999999999999999)", "number out of range");
  expect_rejected("reed-solomon(4+99999999999999999999)",
                  "number out of range");
}

TEST(SchemeNameParsing, RejectsMalformedNumbers) {
  expect_rejected("mirror(k=x)", "malformed number");
  expect_rejected("mirror(k=)", "malformed number");
  expect_rejected("mirror(k=2x)", "malformed number");
  expect_rejected("mirror(k=-2)", "malformed number");
  expect_rejected("reed-solomon(4+)", "malformed number");
  expect_rejected("reed-solomon(+2)", "malformed number");
}

TEST(SchemeNameParsing, RejectsMissingClose) {
  expect_rejected("mirror(k=2", "missing ')'");
  expect_rejected("rdp(p=5", "missing ')'");
}

TEST(SchemeNameParsing, RejectsTrailingGarbage) {
  expect_rejected("mirror(k=2)x", "trailing characters");
  expect_rejected("mirror(k=2))", "trailing characters");
  expect_rejected("reed-solomon(4+2) ", "trailing characters");
  expect_rejected("evenodd(p=5)!", "trailing characters");
}

TEST(SchemeNameParsing, RejectsMissingPlusInReedSolomon) {
  expect_rejected("reed-solomon(42)", "expected 'D+P'");
}

TEST(SchemeNameParsing, MessagesQuoteTheOffendingInput) {
  expect_rejected("bogus-scheme", "'bogus-scheme'");
  expect_rejected("mirror(k=2)x", "'mirror(k=2)x'");
}

TEST(SchemeNameParsing, AcceptsEveryCanonicalNameItEmits) {
  for (const std::string name :
       {"mirror(k=2)", "mirror(k=3)", "reed-solomon(4+2)",
        "reed-solomon(8+3)", "evenodd(p=5)", "rdp(p=7)"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(make_scheme_from_name(name)->name(), name);
  }
}

TEST(SchemeNameParsing, AcceptsCommandLineSpellingsStrictly) {
  // rds_cli --scheme's spellings are aliases of the canonical names.
  EXPECT_EQ(make_scheme_from_name("mirror:3")->name(), "mirror(k=3)");
  EXPECT_EQ(make_scheme_from_name("rs:4+2")->name(), "reed-solomon(4+2)");
  EXPECT_EQ(make_scheme_from_name("evenodd:5")->name(), "evenodd(p=5)");
  EXPECT_EQ(make_scheme_from_name("rdp:7")->name(), "rdp(p=7)");
  expect_rejected("mirror:", "malformed number");
  expect_rejected("mirror:2x", "malformed number");
  expect_rejected("rs:4+2 ", "malformed number");
  expect_rejected("rs:42", "expected 'D+P'");
  expect_rejected("evenodd:99999999999999999999", "number out of range");
  expect_rejected("raid0:2", "unknown scheme kind");
  EXPECT_THROW((void)make_scheme_from_name("rdp:4"), std::invalid_argument);
}

// A stored scheme name is outside input: an array code's parity terms grow
// with p^2, so p is bounded by the code's fragment count (p + 2 for
// EVENODD, p + 1 for RDP) before any trial division, which for a p near
// 2^32 would take seconds.
TEST(SchemeNameParsing, BoundsArrayCodesAt256Fragments) {
  expect_rejected("evenodd(p=257)", "more than 256 fragments");
  expect_rejected("rdp(p=257)", "more than 256 fragments");
  expect_rejected("evenodd(p=65521)", "more than 256 fragments");
  expect_rejected("evenodd(p=4294967291)", "more than 256 fragments");
  EXPECT_EQ(make_scheme_from_name("evenodd(p=251)")->fragment_count(), 253u);
  EXPECT_EQ(make_scheme_from_name("rdp(p=251)")->fragment_count(), 252u);
}

}  // namespace
}  // namespace rds
