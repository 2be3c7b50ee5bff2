#include "net/survey.hpp"

#include <map>

namespace iotls::net {

NetFailure classify(NetError::Kind kind) {
  switch (kind) {
    case NetError::Kind::kNoRoute: return {ProbeError::kDns, false};
    case NetError::Kind::kTimeout: return {ProbeError::kTimeout, true};
    case NetError::Kind::kConnect: return {ProbeError::kConnect, true};
    case NetError::Kind::kProtocol: return {ProbeError::kConnect, false};
  }
  return {ProbeError::kConnect, true};
}

void record_outcome(CircuitBreaker& breaker, const std::string& key,
                    ProbeError error) {
  if (error == ProbeError::kDns || error == ProbeError::kTimeout ||
      error == ProbeError::kConnect) {
    breaker.record_failure(key);
  } else {
    breaker.record_success(key);
  }
}

std::vector<std::vector<std::size_t>> group_by_sni(
    const std::vector<std::string>& snis) {
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::string, std::size_t> group_of;
  for (std::size_t i = 0; i < snis.size(); ++i) {
    auto [it, fresh] = group_of.emplace(snis[i], groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

}  // namespace iotls::net
