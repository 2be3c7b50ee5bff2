// Dense-id interning and set primitives for the §4/§5 analysis core.
//
// Every analysis in core/ joins fingerprints, vendors, devices, SNIs and
// users. The seed implementation keyed everything by std::string and paid a
// full key compare (JA3-style keys run to hundreds of bytes) on every set
// operation. The interner maps each distinct string to a dense uint32 id —
// insertion-ordered, so ids are deterministic for a deterministic input
// order — and the analyses run on sorted id posting lists and fixed-width
// bitsets instead. String views are materialized only at the report edge.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace iotls::core {

/// String <-> dense uint32 id map. Ids are assigned in first-seen order, so
/// an input processed in deterministic order (the index fold's sequential
/// intern phase) yields the same ids on every run and at every --jobs level.
class Interner {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  // Move-only: the id map's keys view the strings_ elements, so a copy's
  // keys would point into the source. Moves keep element addresses.
  Interner() = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;
  Interner(Interner&&) = default;
  Interner& operator=(Interner&&) = default;

  /// Id of `s`, interning it if unseen.
  std::uint32_t intern(std::string_view s);

  /// Id of `s`, or kNone when it was never interned.
  std::uint32_t find(std::string_view s) const;

  /// The string behind an id (valid for the interner's lifetime; storage is
  /// reference-stable, so views handed out earlier never dangle).
  const std::string& str(std::uint32_t id) const { return strings_[id]; }

  std::uint32_t size() const { return static_cast<std::uint32_t>(strings_.size()); }
  bool empty() const { return strings_.empty(); }
  void reserve(std::size_t n) { ids_.reserve(n); }

  /// All ids, permuted into lexicographic string order — the iteration
  /// order of the seed's std::map indexes, which report output depends on.
  std::vector<std::uint32_t> ids_by_string() const;

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const { return a == b; }
  };

  std::deque<std::string> strings_;  // deque: stable references across growth
  std::unordered_map<std::string_view, std::uint32_t, Hash, Eq> ids_;
};

/// Fixed-width bitset over a dense id domain, sized once at finalize time.
/// Supports the one operation the Jaccard analyses need to be fast:
/// intersection cardinality via word-wise AND + popcount.
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t bits) { resize(bits); }

  void resize(std::size_t bits) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, 0);
  }

  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  std::size_t size() const { return bits_; }

  /// Number of set bits.
  std::size_t count() const;

  /// |a AND b| without materializing the intersection.
  static std::size_t and_count(const Bitset& a, const Bitset& b);

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Sorted-unique posting list over dense ids.
using PostingList = std::vector<std::uint32_t>;

/// |a ∩ b| of two sorted-unique lists (linear merge with galloping skip for
/// lopsided sizes).
std::size_t intersect_count(const PostingList& a, const PostingList& b);

}  // namespace iotls::core
