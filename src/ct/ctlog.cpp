#include "ct/ctlog.hpp"

#include "crypto/sha256.hpp"
#include "util/hex.hpp"

namespace iotls::ct {

CtLog::CtLog(std::string name) : name_(std::move(name)) {
  crypto::Sha256Digest id = crypto::sha256("ct-log:" + name_);
  log_id_ = to_hex(BytesView(id.data(), id.size())).substr(0, 16);
}

Bytes CtLog::log_entry(const x509::Certificate& cert) { return cert.encode(); }

Sct CtLog::submit(const x509::Certificate& cert, std::int64_t timestamp) {
  // One encoding serves both the fingerprint (Certificate::fingerprint() is
  // the SHA-256 of the same bytes) and the log entry.
  Bytes entry = log_entry(cert);
  std::string fp = crypto::sha256_hex(BytesView(entry.data(), entry.size()));
  auto it = by_fingerprint_.find(fp);
  if (it != by_fingerprint_.end()) return it->second;

  Sct sct;
  sct.log_id = log_id_;
  sct.leaf_index = tree_.append(BytesView(entry.data(), entry.size()));
  sct.timestamp = timestamp;
  by_fingerprint_[fp] = sct;
  return sct;
}

bool CtLog::contains(const std::string& cert_fingerprint) const {
  return by_fingerprint_.count(cert_fingerprint) > 0;
}

std::optional<Sct> CtLog::lookup(const std::string& cert_fingerprint) const {
  auto it = by_fingerprint_.find(cert_fingerprint);
  if (it == by_fingerprint_.end()) return std::nullopt;
  return it->second;
}

std::vector<Hash> CtLog::prove_inclusion(const Sct& sct) const {
  return tree_.inclusion_proof(sct.leaf_index, tree_.size());
}

bool CtLog::audit(const x509::Certificate& cert, const Sct& sct,
                  const std::vector<Hash>& proof) const {
  Bytes entry = log_entry(cert);
  Hash leaf = leaf_hash(BytesView(entry.data(), entry.size()));
  return verify_inclusion(leaf, sct.leaf_index, tree_.size(), proof,
                          tree_.root());
}

bool CtIndex::logged(const std::string& cert_fingerprint) const {
  for (const CtLog* log : logs_) {
    if (log->contains(cert_fingerprint)) return true;
  }
  return false;
}

std::vector<std::string> CtIndex::logs_containing(
    const std::string& cert_fingerprint) const {
  std::vector<std::string> out;
  for (const CtLog* log : logs_) {
    if (log->contains(cert_fingerprint)) out.push_back(log->name());
  }
  return out;
}

}  // namespace iotls::ct
