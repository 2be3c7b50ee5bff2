// Tests for the Certificate Transparency substrate (Merkle tree + logs).
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <string>
#include <utility>

#include "ct/ctlog.hpp"
#include "ct/merkle.hpp"
#include "util/hex.hpp"
#include "x509/authority.hpp"

namespace iotls::ct {
namespace {

Bytes entry(const std::string& s) { return Bytes(s.begin(), s.end()); }

BytesView view(const Bytes& b) { return BytesView(b.data(), b.size()); }

// ------------------------------------------------------------- Merkle basics

TEST(Merkle, EmptyTreeHashIsSha256OfEmpty) {
  Hash h = empty_tree_hash();
  EXPECT_EQ(to_hex(BytesView(h.data(), h.size())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Merkle, Rfc6962LeafAndNodeDomainSeparation) {
  // leaf(x) != SHA256(x): the 0x00 prefix separates domains.
  Bytes e = entry("hello");
  Hash leaf = leaf_hash(view(e));
  Hash plain = crypto::sha256(view(e));
  EXPECT_NE(leaf, plain);
  // node(a,b) != node(b,a) in general.
  Hash a = leaf_hash(view(entry("a")));
  Hash b = leaf_hash(view(entry("b")));
  EXPECT_NE(node_hash(a, b), node_hash(b, a));
}

TEST(Merkle, SingleLeafRootIsLeafHash) {
  MerkleTree t;
  Bytes e = entry("only");
  t.append(view(e));
  EXPECT_EQ(t.root(), leaf_hash(view(e)));
}

TEST(Merkle, RootChangesOnAppend) {
  MerkleTree t;
  t.append(view(entry("a")));
  Hash r1 = t.root();
  t.append(view(entry("b")));
  EXPECT_NE(t.root(), r1);
}

TEST(Merkle, HistoricalRootsStable) {
  MerkleTree t;
  std::vector<Hash> heads;
  for (int i = 0; i < 20; ++i) {
    t.append(view(entry("e" + std::to_string(i))));
    heads.push_back(t.root());
  }
  // Appending never rewrites history: root(n) is still the old head.
  for (int n = 1; n <= 20; ++n) {
    EXPECT_EQ(t.root(static_cast<std::uint64_t>(n)),
              heads[static_cast<std::size_t>(n - 1)]);
  }
}

// -------------------------------------------------- inclusion proofs

class InclusionSweep : public ::testing::TestWithParam<int> {};

TEST_P(InclusionSweep, EveryLeafProvableAtEverySize) {
  const int size = GetParam();
  MerkleTree t;
  std::vector<Bytes> entries;
  for (int i = 0; i < size; ++i) {
    entries.push_back(entry("leaf" + std::to_string(i)));
    t.append(view(entries.back()));
  }
  for (std::uint64_t n = 1; n <= static_cast<std::uint64_t>(size); ++n) {
    Hash head = t.root(n);
    for (std::uint64_t m = 0; m < n; ++m) {
      auto proof = t.inclusion_proof(m, n);
      EXPECT_TRUE(verify_inclusion(leaf_hash(view(entries[m])), m, n, proof, head))
          << "m=" << m << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, InclusionSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16,
                                           17, 31, 33, 64, 100));

TEST(Merkle, InclusionProofRejectsWrongLeaf) {
  MerkleTree t;
  for (int i = 0; i < 10; ++i) t.append(view(entry("x" + std::to_string(i))));
  auto proof = t.inclusion_proof(3, 10);
  EXPECT_TRUE(verify_inclusion(leaf_hash(view(entry("x3"))), 3, 10, proof, t.root()));
  EXPECT_FALSE(verify_inclusion(leaf_hash(view(entry("x4"))), 3, 10, proof, t.root()));
}

TEST(Merkle, InclusionProofRejectsWrongIndex) {
  MerkleTree t;
  for (int i = 0; i < 10; ++i) t.append(view(entry("x" + std::to_string(i))));
  auto proof = t.inclusion_proof(3, 10);
  EXPECT_FALSE(verify_inclusion(leaf_hash(view(entry("x3"))), 4, 10, proof, t.root()));
}

TEST(Merkle, InclusionProofRejectsTamperedPath) {
  MerkleTree t;
  for (int i = 0; i < 10; ++i) t.append(view(entry("x" + std::to_string(i))));
  auto proof = t.inclusion_proof(3, 10);
  ASSERT_FALSE(proof.empty());
  proof[0][0] ^= 0x01;
  EXPECT_FALSE(verify_inclusion(leaf_hash(view(entry("x3"))), 3, 10, proof, t.root()));
}

TEST(Merkle, InclusionProofBadIndicesThrow) {
  MerkleTree t;
  t.append(view(entry("a")));
  EXPECT_THROW(t.inclusion_proof(1, 1), std::out_of_range);
  EXPECT_THROW(t.inclusion_proof(0, 2), std::out_of_range);
}

// -------------------------------------------------- consistency proofs

class ConsistencySweep : public ::testing::TestWithParam<int> {};

TEST_P(ConsistencySweep, AllSizePairsConsistent) {
  const int size = GetParam();
  MerkleTree t;
  for (int i = 0; i < size; ++i) t.append(view(entry("c" + std::to_string(i))));
  for (std::uint64_t first = 1; first <= static_cast<std::uint64_t>(size); ++first) {
    for (std::uint64_t second = first; second <= static_cast<std::uint64_t>(size);
         ++second) {
      auto proof = t.consistency_proof(first, second);
      EXPECT_TRUE(verify_consistency(first, second, t.root(first),
                                     t.root(second), proof))
          << "first=" << first << " second=" << second;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConsistencySweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 9, 16, 17, 33));

TEST(Merkle, ConsistencyRejectsForkedHistory) {
  // The forked log rewrites an entry *inside* the already-published prefix
  // (index 3 of 5), so its size-8 head cannot be proven consistent with the
  // honest size-5 head any observer recorded.
  MerkleTree honest, forked;
  for (int i = 0; i < 8; ++i) honest.append(view(entry("h" + std::to_string(i))));
  for (int i = 0; i < 8; ++i)
    forked.append(view(entry(i == 3 ? std::string("EVIL") : "h" + std::to_string(i))));

  auto proof = forked.consistency_proof(5, 8);
  EXPECT_FALSE(verify_consistency(5, 8, honest.root(5), forked.root(8), proof));
  // But it does connect its own (rewritten) prefix.
  EXPECT_TRUE(verify_consistency(5, 8, forked.root(5), forked.root(8), proof));
}

TEST(Merkle, ConsistencySameSizeEmptyProof) {
  MerkleTree t;
  for (int i = 0; i < 6; ++i) t.append(view(entry(std::to_string(i))));
  auto proof = t.consistency_proof(6, 6);
  EXPECT_TRUE(proof.empty());
  EXPECT_TRUE(verify_consistency(6, 6, t.root(), t.root(), proof));
}

// ------------------------------------------- RFC 6962 known answers

// The certificate-transparency reference leaves and their tree heads for
// sizes 1..8, fixed vectors independent of this implementation.
TEST(Merkle, Rfc6962ReferenceRoots) {
  const char* leaves[] = {"",         "00",       "10",
                          "2021",     "3031",     "40414243",
                          "5051525354555657",
                          "606162636465666768696a6b6c6d6e6f"};
  const char* heads[] = {
      "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
      "fac54203e7cc696cf0dfcb42c92a1d9dbaf70ad9e621f4bd8d98662f00e3c125",
      "aeb6bcfe274b70a14fb067a5e5578264db0fa9b51af5e0ba159158f329e06e77",
      "d37ee418976dd95753c1c73862b9398fa2a2cf9b4ff0fdfe8b30cd95209614b7",
      "4e3bbb1f7b478dcfe71fb631631519a3bca12c9aefca1612bfce4c13a86264d4",
      "76e67dadbcdf1e10e1b74ddc608abd2f98dfb16fbce75277b5232a127f2087ef",
      "ddb89be403809e325750d3d263cd78929c2942b7942a34b77e122c9594a74c8c",
      "5dc9da79a70659a9ad559cb701ded9a2ab9d823aad2f4960cfe370eff4604328"};
  MerkleTree t;
  for (std::size_t i = 0; i < 8; ++i) {
    t.append(view(from_hex(leaves[i])));
    Hash head = t.root();
    EXPECT_EQ(to_hex(BytesView(head.data(), head.size())), heads[i])
        << "size " << i + 1;
  }
  // Historical heads survive growth.
  for (std::uint64_t n = 1; n <= 8; ++n) {
    Hash head = t.root(n);
    EXPECT_EQ(to_hex(BytesView(head.data(), head.size())), heads[n - 1]);
  }
}

// ------------------------------------------- seed reference algorithms
// Verbatim re-statements of the pre-cache implementations, which rebuilt
// every subtree from the leaf hashes on each call.

std::uint64_t ref_split_point(std::uint64_t n) {
  return std::uint64_t{1} << (std::bit_width(n - 1) - 1);
}

Hash ref_subtree_root(const std::vector<Hash>& leaves, std::uint64_t lo,
                      std::uint64_t hi) {
  std::uint64_t n = hi - lo;
  if (n == 0) return empty_tree_hash();
  if (n == 1) return leaves[lo];
  std::uint64_t k = ref_split_point(n);
  return node_hash(ref_subtree_root(leaves, lo, lo + k),
                   ref_subtree_root(leaves, lo + k, hi));
}

std::vector<Hash> ref_inclusion_proof(const std::vector<Hash>& leaves,
                                      std::uint64_t leaf_index,
                                      std::uint64_t tree_size) {
  std::vector<Hash> proof;
  std::uint64_t lo = 0, hi = tree_size, m = leaf_index;
  std::vector<Hash> reversed;
  while (hi - lo > 1) {
    std::uint64_t k = ref_split_point(hi - lo);
    if (m - lo < k) {
      reversed.push_back(ref_subtree_root(leaves, lo + k, hi));
      hi = lo + k;
    } else {
      reversed.push_back(ref_subtree_root(leaves, lo, lo + k));
      lo = lo + k;
    }
  }
  proof.assign(reversed.rbegin(), reversed.rend());
  return proof;
}

std::vector<Hash> ref_consistency_proof(const std::vector<Hash>& leaves,
                                        std::uint64_t first,
                                        std::uint64_t second) {
  std::vector<Hash> reversed;
  std::uint64_t lo = 0, hi = second, m = first;
  bool b = true;
  while (true) {
    std::uint64_t n = hi - lo;
    if (m == n) {
      if (!b) reversed.push_back(ref_subtree_root(leaves, lo, hi));
      break;
    }
    std::uint64_t k = ref_split_point(n);
    if (m <= k) {
      reversed.push_back(ref_subtree_root(leaves, lo + k, hi));
      hi = lo + k;
    } else {
      reversed.push_back(ref_subtree_root(leaves, lo, lo + k));
      lo = lo + k;
      m -= k;
      b = false;
    }
  }
  return std::vector<Hash>(reversed.rbegin(), reversed.rend());
}

Bytes id_entry(std::uint64_t i) { return entry("id" + std::to_string(i)); }

/// Appends entries [t.size(), n) to `t` and their leaf hashes to `leaves`.
void grow(MerkleTree& t, std::vector<Hash>& leaves, std::uint64_t n) {
  for (std::uint64_t i = t.size(); i < n; ++i) {
    Bytes e = id_entry(i);
    t.append(view(e));
    leaves.push_back(leaf_hash(view(e)));
  }
}

/// Checks root(n), inclusion_proof(m, n) and consistency_proof(a, n) against
/// the seed reference for `samples` draws of m and a (every m and a when
/// samples == 0), plus the edge indices.
void expect_matches_seed(const MerkleTree& t, const std::vector<Hash>& leaves,
                         std::uint64_t n, int samples, std::mt19937_64& rng) {
  ASSERT_LE(n, t.size());
  EXPECT_EQ(t.root(n), ref_subtree_root(leaves, 0, n)) << "n=" << n;
  if (n == 0) return;
  std::vector<std::uint64_t> ms;
  if (samples == 0) {
    for (std::uint64_t m = 0; m < n; ++m) ms.push_back(m);
  } else {
    ms = {0, n / 2, n - 1};
    for (int i = 0; i < samples; ++i) ms.push_back(rng() % n);
  }
  for (std::uint64_t m : ms) {
    EXPECT_EQ(t.inclusion_proof(m, n), ref_inclusion_proof(leaves, m, n))
        << "m=" << m << " n=" << n;
    std::uint64_t a = m + 1;  // every a in [1, n] when samples == 0
    EXPECT_EQ(t.consistency_proof(a, n), ref_consistency_proof(leaves, a, n))
        << "first=" << a << " second=" << n;
  }
}

TEST(MerkleSeedIdentity, EverySizeUpTo70) {
  // Grown one leaf at a time and checked at each size, so every (m, n) and
  // every pair a <= b <= 70 is checked while n is the tree's right edge.
  MerkleTree t;
  std::vector<Hash> leaves;
  std::mt19937_64 rng(14);
  expect_matches_seed(t, leaves, 0, 0, rng);
  for (std::uint64_t n = 1; n <= 70; ++n) {
    grow(t, leaves, n);
    expect_matches_seed(t, leaves, n, 0, rng);
  }
  // And again for every historical size of the full tree.
  for (std::uint64_t n = 1; n <= 70; ++n)
    expect_matches_seed(t, leaves, n, 0, rng);
}

TEST(MerkleSeedIdentity, SampledAtLargeSizes) {
  MerkleTree t;
  std::vector<Hash> leaves;
  std::mt19937_64 rng(1023);
  for (std::uint64_t n : {1023u, 1024u, 1025u, 4097u}) {
    grow(t, leaves, n);
    expect_matches_seed(t, leaves, n, 24, rng);
  }
  for (std::uint64_t n : {1u, 2u, 1023u, 1024u, 1025u, 2048u, 3000u})
    expect_matches_seed(t, leaves, n, 8, rng);
}

TEST(MerkleSeedIdentity, CopiedAndMovedTreesKeepWorking) {
  MerkleTree t;
  std::vector<Hash> leaves;
  std::mt19937_64 rng(7);
  grow(t, leaves, 37);

  // A copy answers as the original and grows independently of it.
  MerkleTree copy = t;
  std::vector<Hash> copy_leaves = leaves;
  grow(copy, copy_leaves, 70);
  EXPECT_EQ(t.size(), 37u);
  expect_matches_seed(t, leaves, 37, 0, rng);
  expect_matches_seed(copy, copy_leaves, 70, 0, rng);
  expect_matches_seed(copy, copy_leaves, 37, 0, rng);

  // Move construction leaves the source an empty, usable tree.
  MerkleTree moved = std::move(copy);
  EXPECT_EQ(copy.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.root(), empty_tree_hash());
  copy.append(view(id_entry(0)));
  EXPECT_EQ(copy.root(), leaf_hash(view(id_entry(0))));
  grow(moved, copy_leaves, 100);
  expect_matches_seed(moved, copy_leaves, 100, 0, rng);

  // Move assignment over a populated tree, as a log that rebuilds does.
  MerkleTree fresh;
  std::vector<Hash> fresh_leaves;
  grow(fresh, fresh_leaves, 33);
  t = std::move(fresh);
  EXPECT_EQ(t.size(), 33u);
  grow(t, fresh_leaves, 65);
  expect_matches_seed(t, fresh_leaves, 65, 0, rng);
  expect_matches_seed(t, fresh_leaves, 33, 0, rng);

  // Copy assignment, then both sides grow.
  MerkleTree assigned;
  assigned = t;
  std::vector<Hash> assigned_leaves = fresh_leaves;
  grow(assigned, assigned_leaves, 80);
  grow(t, fresh_leaves, 66);
  expect_matches_seed(assigned, assigned_leaves, 80, 0, rng);
  expect_matches_seed(t, fresh_leaves, 66, 0, rng);

  // A default-constructed tree is the empty log.
  MerkleTree empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.root(), empty_tree_hash());
  EXPECT_THROW(empty.inclusion_proof(0, 0), std::out_of_range);
  EXPECT_THROW(empty.consistency_proof(1, 1), std::out_of_range);
}

// -------------------------------------------------- CT log

x509::Certificate make_cert(const std::string& host) {
  static auto ca = x509::CertificateAuthority::make_root(
      "CT Test CA", "TestOrg", x509::CaKind::kPublicTrust, 15000, 30000);
  x509::IssueRequest req;
  req.subject.common_name = host;
  req.not_before = 18000;
  req.not_after = 18398;
  return ca.issue(req);
}

TEST(CtLog, SubmitAndLookup) {
  CtLog log("argon");
  x509::Certificate cert = make_cert("logged.example.com");
  Sct sct = log.submit(cert, 18100);
  EXPECT_EQ(sct.leaf_index, 0u);
  EXPECT_TRUE(log.contains(cert.fingerprint()));
  EXPECT_FALSE(log.contains("0000"));
  auto found = log.lookup(cert.fingerprint());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->leaf_index, 0u);
}

TEST(CtLog, SubmitIsIdempotent) {
  CtLog log("argon");
  x509::Certificate cert = make_cert("idem.example.com");
  Sct first = log.submit(cert, 18100);
  Sct second = log.submit(cert, 18200);
  EXPECT_EQ(first.leaf_index, second.leaf_index);
  EXPECT_EQ(first.timestamp, second.timestamp);
  EXPECT_EQ(log.size(), 1u);
}

TEST(CtLog, AuditProvesInclusion) {
  CtLog log("argon");
  std::vector<x509::Certificate> certs;
  std::vector<Sct> scts;
  for (int i = 0; i < 12; ++i) {
    certs.push_back(make_cert("host" + std::to_string(i) + ".example.com"));
    scts.push_back(log.submit(certs.back(), 18100 + i));
  }
  for (int i = 0; i < 12; ++i) {
    auto proof = log.prove_inclusion(scts[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(log.audit(certs[static_cast<std::size_t>(i)],
                          scts[static_cast<std::size_t>(i)], proof));
  }
}

TEST(CtLog, AuditRejectsUnloggedCertificate) {
  CtLog log("argon");
  x509::Certificate logged = make_cert("in.example.com");
  Sct sct = log.submit(logged, 18100);
  log.submit(make_cert("other.example.com"), 18101);
  auto proof = log.prove_inclusion(sct);
  x509::Certificate unlogged = make_cert("not-in.example.com");
  EXPECT_FALSE(log.audit(unlogged, sct, proof));
}

TEST(CtLog, ConsistencyAcrossGrowth) {
  CtLog log("argon");
  for (int i = 0; i < 5; ++i) log.submit(make_cert("g" + std::to_string(i) + ".example.com"), 18100);
  Hash head5 = log.tree_head();
  for (int i = 5; i < 9; ++i) log.submit(make_cert("g" + std::to_string(i) + ".example.com"), 18200);
  auto proof = log.prove_consistency(5, 9);
  EXPECT_TRUE(verify_consistency(5, 9, head5, log.tree_head(), proof));
}

TEST(CtIndex, QueriesAllLogs) {
  CtLog argon("argon"), xenon("xenon");
  CtIndex index;
  index.add_log(&argon);
  index.add_log(&xenon);

  x509::Certificate a = make_cert("only-argon.example.com");
  x509::Certificate b = make_cert("both.example.com");
  x509::Certificate c = make_cert("nowhere.example.com");
  argon.submit(a, 18100);
  argon.submit(b, 18100);
  xenon.submit(b, 18100);

  EXPECT_TRUE(index.logged(a.fingerprint()));
  EXPECT_TRUE(index.logged(b.fingerprint()));
  EXPECT_FALSE(index.logged(c.fingerprint()));
  EXPECT_EQ(index.logs_containing(b.fingerprint()),
            (std::vector<std::string>{"argon", "xenon"}));
}

TEST(CtLog, DistinctLogsHaveDistinctIds) {
  CtLog a("argon"), b("xenon");
  EXPECT_NE(a.log_id(), b.log_id());
}

}  // namespace
}  // namespace iotls::ct
