// RFC 6962 / RFC 9162 Merkle hash tree.
//
// Leaf hash:  SHA-256(0x00 ‖ entry)
// Node hash:  SHA-256(0x01 ‖ left ‖ right)
// The empty tree hashes to SHA-256 of the empty string.
//
// Provides audit (inclusion) proofs and consistency proofs with their
// standard verification algorithms, so the CT-log substrate is a real
// transparency log, not a lookup set.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace iotls::ct {

using Hash = crypto::Sha256Digest;

Hash leaf_hash(BytesView entry);
Hash node_hash(const Hash& left, const Hash& right);
Hash empty_tree_hash();

/// An append-only Merkle tree over opaque entries. It caches every perfect
/// subtree root, so root(n) for any historical n and both proof kinds cost
/// O(log n) node hashes, and append costs one node hash amortised.
class MerkleTree {
 public:
  /// Append an entry; returns its leaf index.
  std::uint64_t append(BytesView entry);

  std::uint64_t size() const {
    return levels_.empty() ? 0 : levels_.front().size();
  }

  /// Merkle tree head over the first `n` leaves (n <= size()); with n == 0
  /// returns empty_tree_hash().
  Hash root(std::uint64_t n) const;
  Hash root() const { return root(size()); }

  /// Inclusion proof for `leaf_index` within the first `tree_size` leaves.
  /// Throws std::out_of_range on bad indices.
  std::vector<Hash> inclusion_proof(std::uint64_t leaf_index,
                                    std::uint64_t tree_size) const;

  /// Consistency proof between tree sizes `first` and `second`
  /// (0 < first <= second <= size()).
  std::vector<Hash> consistency_proof(std::uint64_t first,
                                      std::uint64_t second) const;

 private:
  Hash subtree_root(std::uint64_t lo, std::uint64_t hi) const;  // [lo, hi)

  // levels_[l][i] is the root of the perfect subtree over leaves
  // [i * 2^l, (i + 1) * 2^l); levels_[0] holds the leaf hashes. Every
  // complete pair on a level has its parent on the next, so level l always
  // holds size() >> l nodes (at most 2x the leaf storage in total).
  std::vector<std::vector<Hash>> levels_;
};

/// RFC 9162 §2.1.3.2 verification: does `proof` place the entry with
/// `leaf_hash` at `leaf_index` in a tree of `tree_size` with head `root`?
bool verify_inclusion(const Hash& leaf, std::uint64_t leaf_index,
                      std::uint64_t tree_size, const std::vector<Hash>& proof,
                      const Hash& root);

/// RFC 9162 §2.1.4.2 verification of a consistency proof between
/// (first, first_root) and (second, second_root).
bool verify_consistency(std::uint64_t first, std::uint64_t second,
                        const Hash& first_root, const Hash& second_root,
                        const std::vector<Hash>& proof);

}  // namespace iotls::ct
