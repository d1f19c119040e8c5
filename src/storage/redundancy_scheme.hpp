// Redundancy schemes: how one logical block becomes k placed fragments.
//
// The paper stresses that Redundant Share "is always able to clearly
// identify the i-th of k copies" -- this interface is where that matters:
// fragment i of a block is whatever the scheme says fragment i is (an
// identical mirror copy, or a specific erasure-code shard), and placement
// copy index i stores exactly fragment i.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rds {

using Bytes = std::vector<std::uint8_t>;

class RedundancyScheme {
 public:
  virtual ~RedundancyScheme() = default;

  /// Number of fragments per block (the placement degree k).
  [[nodiscard]] virtual unsigned fragment_count() const = 0;

  /// Minimum number of fragments needed to reconstruct a block.
  [[nodiscard]] virtual unsigned min_fragments() const = 0;

  /// Splits/encodes a block into fragment_count() fragments.
  [[nodiscard]] virtual std::vector<Bytes> encode(
      std::span<const std::uint8_t> block) const = 0;

  /// Reconstructs the block from >= min_fragments() present fragments
  /// (indexed by fragment number; nullopt = lost).  `block_size` is the
  /// original block length.  Throws std::invalid_argument if too few
  /// fragments are present.
  [[nodiscard]] virtual Bytes decode(
      std::span<const std::optional<Bytes>> fragments,
      std::size_t block_size) const = 0;

  /// Recomputes one lost fragment from the present ones (rebuild path).
  [[nodiscard]] virtual Bytes reconstruct_fragment(
      std::span<const std::optional<Bytes>> fragments,
      unsigned target) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// k identical copies; any single copy reconstructs the block.
class MirroringScheme final : public RedundancyScheme {
 public:
  explicit MirroringScheme(unsigned k);

  [[nodiscard]] unsigned fragment_count() const override { return k_; }
  [[nodiscard]] unsigned min_fragments() const override { return 1; }
  [[nodiscard]] std::vector<Bytes> encode(
      std::span<const std::uint8_t> block) const override;
  [[nodiscard]] Bytes decode(std::span<const std::optional<Bytes>> fragments,
                             std::size_t block_size) const override;
  [[nodiscard]] Bytes reconstruct_fragment(
      std::span<const std::optional<Bytes>> fragments,
      unsigned target) const override;
  [[nodiscard]] std::string name() const override;

 private:
  unsigned k_;
};

/// A systematic linear erasure code over GF(2^8): the one engine behind
/// Reed-Solomon, EVENODD and RDP, which differ only in the parity terms
/// they hand it (src/storage/erasure/).
///
/// A block is cut into `data` columns of `rows` cells of
/// ceil(size / (data * rows)) bytes, zero-padded at the end: data cell
/// g = j * rows + i (column j, row i) holds block bytes from g * cell on,
/// and fragment j < data is column j.  Fragment data + q is parity column q;
/// its row i is parity cell t = q * rows + i, the sum (XOR) of its terms
/// coef * data[g].  Each parity cell and its terms form a check that sums
/// to zero.  decode and reconstruct_fragment restrict the checks to the
/// cells of the missing fragments and solve them by Gauss-Jordan
/// elimination whose right-hand sides are byte chunks.  With every data
/// fragment present nothing is unknown and a decode is their concatenation,
/// so a read needs no parity (VirtualDisk reads stop at min_fragments()).
class LinearCodeScheme : public RedundancyScheme {
 public:
  struct Term {
    std::uint32_t cell;  // data cell index g
    std::uint8_t coef;
  };

  /// The most fragments a code may have: Reed-Solomon's Cauchy points must
  /// be distinct in GF(2^8), and the array codes' parity terms grow with
  /// the square of their prime.
  static constexpr unsigned kMaxFragments = 256;

  [[nodiscard]] unsigned fragment_count() const override {
    return data_ + parity_;
  }
  [[nodiscard]] unsigned min_fragments() const override { return data_; }
  [[nodiscard]] std::vector<Bytes> encode(
      std::span<const std::uint8_t> block) const override;
  [[nodiscard]] Bytes decode(std::span<const std::optional<Bytes>> fragments,
                             std::size_t block_size) const override;
  [[nodiscard]] Bytes reconstruct_fragment(
      std::span<const std::optional<Bytes>> fragments,
      unsigned target) const override;

 protected:
  /// `checks[t]` lists the terms of parity cell t, parity * rows in all.
  /// The code must be MDS: any `parity` lost fragments are recoverable.
  LinearCodeScheme(unsigned data, unsigned parity, unsigned rows,
                   std::vector<std::vector<Term>> checks);

  /// `p`, or std::invalid_argument naming `codec` unless p is an odd prime
  /// (what the row-and-diagonal array codes need) and the code's
  /// p + `extra` fragments are at most kMaxFragments.
  static unsigned odd_prime(unsigned p, unsigned extra, const char* codec);

 private:
  /// The size every present fragment shares; throws std::invalid_argument
  /// on a wrong count, mixed sizes, a size not split into `rows` cells, or
  /// more than `parity` fragments missing.
  [[nodiscard]] std::size_t fragment_size(
      std::span<const std::optional<Bytes>> fragments) const;

  /// Solves the checks for the cells of every missing data fragment and, if
  /// it is a parity fragment, of the missing `target` (fragment_count() for
  /// none).  Result [f * rows + i] is cell i of fragment f, set only for the
  /// cells solved.
  [[nodiscard]] std::vector<Bytes> solve(
      std::span<const std::optional<Bytes>> fragments, std::size_t cell,
      unsigned target) const;

  unsigned data_;
  unsigned parity_;
  unsigned rows_;
  std::vector<std::vector<Term>> checks_;  // [t]: the data terms of cell t
};

/// Reed-Solomon d+p: k = d+p fragments of one cell each, any d reconstruct.
/// Parity row r is the Cauchy row 1 / ((d + r) ^ c), so any d rows of
/// [I; Cauchy] are invertible.  d + p <= 256.
class ReedSolomonScheme final : public LinearCodeScheme {
 public:
  ReedSolomonScheme(unsigned data_shards, unsigned parity_shards);

  [[nodiscard]] std::string name() const override;
};

/// The one scheme factory.  Takes a name() string ("mirror(k=2)",
/// "reed-solomon(4+2)", "evenodd(p=5)", "rdp(p=7)") or its command-line
/// spelling ("mirror:2", "rs:4+2", "evenodd:5", "rdp:7").  Parsing is
/// strict: the whole string must be consumed (no trailing garbage), numbers
/// must fit an unsigned, and the scheme constructors' own validation (zero
/// shards, non-prime p, ...) applies.  Throws std::invalid_argument with a
/// message naming what was wrong.
[[nodiscard]] std::shared_ptr<RedundancyScheme> make_scheme_from_name(
    const std::string& name);

}  // namespace rds
