#include "ct/merkle.hpp"

#include <bit>
#include <stdexcept>

namespace iotls::ct {

namespace {

BytesView as_view(const Hash& h) { return BytesView(h.data(), h.size()); }

/// Largest power of two strictly less than n (n >= 2).
std::uint64_t split_point(std::uint64_t n) {
  return std::uint64_t{1} << (std::bit_width(n - 1) - 1);
}

}  // namespace

Hash leaf_hash(BytesView entry) {
  crypto::Sha256 ctx;
  std::uint8_t prefix = 0x00;
  ctx.update(BytesView(&prefix, 1));
  ctx.update(entry);
  return ctx.finish();
}

Hash node_hash(const Hash& left, const Hash& right) {
  crypto::Sha256 ctx;
  std::uint8_t prefix = 0x01;
  ctx.update(BytesView(&prefix, 1));
  ctx.update(as_view(left));
  ctx.update(as_view(right));
  return ctx.finish();
}

Hash empty_tree_hash() { return crypto::sha256(BytesView{}); }

std::uint64_t MerkleTree::append(BytesView entry) {
  if (levels_.empty()) levels_.emplace_back();
  levels_[0].push_back(leaf_hash(entry));
  // Carry: each completed pair on level l gets its parent on level l + 1.
  for (std::size_t l = 0; levels_[l].size() % 2 == 0; ++l) {
    if (l + 1 == levels_.size()) levels_.emplace_back();
    const std::vector<Hash>& level = levels_[l];
    levels_[l + 1].push_back(node_hash(level[level.size() - 2], level.back()));
  }
  return size() - 1;
}

Hash MerkleTree::subtree_root(std::uint64_t lo, std::uint64_t hi) const {
  std::uint64_t n = hi - lo;
  if (n == 0) return empty_tree_hash();
  // A perfect subtree aligned to its own size is a cached node. Every split
  // below lands on such a node except along the one non-perfect right edge,
  // so a call costs O(log n) node hashes.
  if (std::has_single_bit(n) && lo % n == 0) {
    int level = std::countr_zero(n);
    return levels_[static_cast<std::size_t>(level)][lo >> level];
  }
  std::uint64_t k = split_point(n);
  return node_hash(subtree_root(lo, lo + k), subtree_root(lo + k, hi));
}

Hash MerkleTree::root(std::uint64_t n) const {
  if (n > size()) throw std::out_of_range("MerkleTree::root: n > size");
  return subtree_root(0, n);
}

std::vector<Hash> MerkleTree::inclusion_proof(std::uint64_t leaf_index,
                                              std::uint64_t tree_size) const {
  if (tree_size > size() || leaf_index >= tree_size)
    throw std::out_of_range("MerkleTree::inclusion_proof: bad indices");
  // RFC 6962 PATH(m, D[lo:hi]), iterative over the recursion. The walk
  // visits the path root-first, so the proof fills from the back. Its
  // length is one node per level below the split where leaf m and the last
  // leaf part, plus one per set bit of m above it (m in a right subtree).
  std::uint64_t m = leaf_index;
  int inner = std::bit_width(m ^ (tree_size - 1));
  std::vector<Hash> proof(
      static_cast<std::size_t>(inner + std::popcount(m >> inner)));
  auto out = proof.rbegin();
  std::uint64_t lo = 0, hi = tree_size;
  while (hi - lo > 1) {
    std::uint64_t k = split_point(hi - lo);
    if (m - lo < k) {
      *out++ = subtree_root(lo + k, hi);
      hi = lo + k;
    } else {
      *out++ = subtree_root(lo, lo + k);
      lo = lo + k;
    }
  }
  return proof;
}

std::vector<Hash> MerkleTree::consistency_proof(std::uint64_t first,
                                                std::uint64_t second) const {
  if (first == 0 || first > second || second > size())
    throw std::out_of_range("MerkleTree::consistency_proof: bad sizes");
  if (first == second) return {};
  // RFC 6962 SUBPROOF(m, D[lo:hi], b), iterative, filling the proof from the
  // back. Its length is the inclusion-path length of leaf first - 1 in the
  // second tree, less the levels inside the perfect subtree that ends at
  // first, plus that subtree's root unless it is the whole first tree.
  std::uint64_t last = first - 1;
  int inner = std::bit_width(last ^ (second - 1));
  int shift = std::countr_zero(first);
  std::vector<Hash> proof(static_cast<std::size_t>(
      (std::has_single_bit(first) ? 0 : 1) + inner - shift +
      std::popcount(last >> inner)));
  auto out = proof.rbegin();
  std::uint64_t lo = 0, hi = second, m = first;
  bool b = true;
  while (true) {
    std::uint64_t n = hi - lo;
    if (m == n) {
      if (!b) *out++ = subtree_root(lo, hi);
      break;
    }
    std::uint64_t k = split_point(n);
    if (m <= k) {
      *out++ = subtree_root(lo + k, hi);
      hi = lo + k;
    } else {
      *out++ = subtree_root(lo, lo + k);
      lo = lo + k;
      m -= k;
      b = false;
    }
  }
  return proof;
}

bool verify_inclusion(const Hash& leaf, std::uint64_t leaf_index,
                      std::uint64_t tree_size, const std::vector<Hash>& proof,
                      const Hash& root) {
  if (leaf_index >= tree_size) return false;
  std::uint64_t fn = leaf_index;
  std::uint64_t sn = tree_size - 1;
  Hash r = leaf;
  for (const Hash& p : proof) {
    if (sn == 0) return false;
    if ((fn & 1) == 1 || fn == sn) {
      r = node_hash(p, r);
      if ((fn & 1) == 0) {
        while (fn != 0 && (fn & 1) == 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      r = node_hash(r, p);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return sn == 0 && r == root;
}

bool verify_consistency(std::uint64_t first, std::uint64_t second,
                        const Hash& first_root, const Hash& second_root,
                        const std::vector<Hash>& proof) {
  if (first == 0 || first > second) return false;
  if (first == second) return proof.empty() && first_root == second_root;

  // If first is an exact power of two, the first subtree root is first_root
  // itself and is not included in the proof.
  std::vector<Hash> path = proof;
  if (std::has_single_bit(first)) {
    path.insert(path.begin(), first_root);
  }
  if (path.empty()) return false;

  std::uint64_t fn = first - 1;
  std::uint64_t sn = second - 1;
  while ((fn & 1) == 1) {
    fn >>= 1;
    sn >>= 1;
  }
  Hash fr = path.front();
  Hash sr = path.front();
  for (std::size_t i = 1; i < path.size(); ++i) {
    const Hash& c = path[i];
    if (sn == 0) return false;
    if ((fn & 1) == 1 || fn == sn) {
      fr = node_hash(c, fr);
      sr = node_hash(c, sr);
      if ((fn & 1) == 0) {
        while (fn != 0 && (fn & 1) == 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      sr = node_hash(sr, c);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return sn == 0 && fr == first_root && sr == second_root;
}

}  // namespace iotls::ct
