#include "stream/reports.hpp"

#include <algorithm>

#include "core/chains.hpp"
#include "core/ct_validity.hpp"
#include "core/device_metrics.hpp"
#include "core/issuers.hpp"
#include "core/sharing.hpp"
#include "core/vendor_metrics.hpp"
#include "corpus/corpus.hpp"

namespace iotls::stream {

namespace {

obs::Json set_json(const std::set<std::string>& values) {
  obs::Json::Array out;
  for (const std::string& v : values) out.emplace_back(v);
  return obs::Json(std::move(out));
}

obs::Json report_table02(const core::ClientDataset& ds) {
  core::DegreeDistribution d = core::fingerprint_degree_distribution(ds);
  return obs::Json(obs::Json::Object{
      {"table", "table02"},
      {"total", static_cast<std::int64_t>(d.total)},
      {"degree1", static_cast<std::int64_t>(d.degree1)},
      {"degree2", static_cast<std::int64_t>(d.degree2)},
      {"degree3to5", static_cast<std::int64_t>(d.degree3to5)},
      {"degree_gt5", static_cast<std::int64_t>(d.degree_gt5)},
      {"ratio1", d.ratio1()},
  });
}

obs::Json report_table03(const core::ClientDataset& ds) {
  obs::Json::Array rows;
  for (const core::VendorHeterogeneity& row :
       core::vendor_heterogeneity_top(ds, 10)) {
    rows.emplace_back(obs::Json::Object{
        {"vendor", row.vendor},
        {"fingerprints", static_cast<std::int64_t>(row.fingerprints)},
        {"shared_by_10plus", row.shared_by_10plus},
        {"single_device", row.single_device},
    });
  }
  return obs::Json(obs::Json::Object{{"table", "table03"},
                                     {"rows", std::move(rows)}});
}

obs::Json report_table04(const core::ClientDataset& ds) {
  obs::Json::Array rows;
  for (const core::VendorSimilarity& sim : core::vendor_similarities(ds, 0.2)) {
    rows.emplace_back(obs::Json::Object{
        {"vendor_a", sim.vendor_a},
        {"vendor_b", sim.vendor_b},
        {"jaccard", sim.jaccard},
        {"overlap_coefficient", sim.overlap_coefficient},
    });
  }
  return obs::Json(obs::Json::Object{{"table", "table04"},
                                     {"rows", std::move(rows)}});
}

obs::Json report_table05(const core::ClientDataset& ds) {
  // The corpus is immutable reference data; one instance serves every call.
  static const corpus::LibraryCorpus corpus = corpus::LibraryCorpus::standard();
  core::ServerTieReport tie = core::server_tied_fingerprints(ds, corpus);
  obs::Json::Array rows;
  for (const core::ServerTiedFingerprint& row : tie.cross_vendor_rows) {
    rows.emplace_back(obs::Json::Object{
        {"sld", row.sld},
        {"fp_key", row.fp_key},
        {"fqdns", set_json(row.fqdns)},
        {"devices", static_cast<std::int64_t>(row.devices.size())},
        {"vendors", set_json(row.vendors)},
    });
  }
  return obs::Json(obs::Json::Object{
      {"table", "table05"},
      {"total_snis", static_cast<std::int64_t>(tie.total_snis)},
      {"tied_snis", static_cast<std::int64_t>(tie.tied_snis)},
      {"rows", std::move(rows)},
  });
}

obs::Json report_certs(const core::CertDataset& certs) {
  core::CertDataset::SharingStats stats = certs.sharing_stats();
  return obs::Json(obs::Json::Object{
      {"report", "certs"},
      {"extracted_snis", static_cast<std::int64_t>(certs.extracted_snis())},
      {"reachable_snis", static_cast<std::int64_t>(certs.reachable_snis())},
      {"distinct_leaves", static_cast<std::int64_t>(certs.leaves().size())},
      {"issuer_organizations",
       static_cast<std::int64_t>(certs.issuer_organizations().size())},
      {"mean_servers_per_cert", stats.mean_servers_per_cert},
      {"max_servers_per_cert",
       static_cast<std::int64_t>(stats.max_servers_per_cert)},
      {"certs_on_multiple_ips",
       static_cast<std::int64_t>(stats.certs_on_multiple_ips)},
  });
}

obs::Json chain_rows_json(const std::vector<core::DomainChainRow>& rows) {
  obs::Json::Array out;
  for (const core::DomainChainRow& row : rows) {
    out.emplace_back(obs::Json::Object{
        {"sld", row.sld},
        {"issuer", row.leaf_issuer},
        {"status", x509::chain_status_slug(row.status)},
        {"fqdns", static_cast<std::int64_t>(row.fqdns)},
        {"devices", static_cast<std::int64_t>(row.devices.size())},
        {"vendors", set_json(row.vendors)},
    });
  }
  return obs::Json(std::move(out));
}

obs::Json report_chains(StreamIngest& ingest, const core::CertDataset& certs) {
  core::ChainReport chains = core::validate_dataset(
      certs, ingest.world(), ingest.config().validation_day,
      ingest.config().jobs, &ingest.validation_cache());
  obs::Json::Array expired;
  for (const core::ExpiredRow& row : chains.expired) {
    expired.emplace_back(obs::Json::Object{
        {"sni", row.sni},
        {"not_after", row.not_after},
        {"issuer", row.issuer},
    });
  }
  return obs::Json(obs::Json::Object{
      {"report", "chains"},
      {"validated", static_cast<std::int64_t>(chains.validated)},
      {"trusted", static_cast<std::int64_t>(chains.trusted)},
      {"failure_rows", chain_rows_json(chains.failure_rows)},
      {"private_root_rows", chain_rows_json(chains.private_root_rows)},
      {"self_signed_rows", chain_rows_json(chains.self_signed_rows)},
      {"expired", std::move(expired)},
      {"cn_mismatches", static_cast<std::int64_t>(chains.cn_mismatches.size())},
      {"private_leaf_failure_ratio", chains.private_leaf_failure_ratio},
  });
}

obs::Json report_issuers(StreamIngest& ingest, const core::CertDataset& certs) {
  core::IssuerReport issuers =
      core::issuer_report(certs, ingest.world().issuer_is_public);
  obs::Json::Object share;
  for (const auto& [org, ratio] : issuers.issuer_share) {
    share.emplace_back(org, ratio);
  }
  return obs::Json(obs::Json::Object{
      {"report", "issuers"},
      {"issuer_organizations",
       static_cast<std::int64_t>(issuers.issuer_organizations)},
      {"leaves", static_cast<std::int64_t>(issuers.leaves)},
      {"private_leaves", static_cast<std::int64_t>(issuers.private_leaves)},
      {"private_ratio", issuers.private_ratio},
      {"issuer_share", std::move(share)},
      {"public_only_vendors", set_json(issuers.public_only_vendors)},
      {"self_signing_vendors", set_json(issuers.self_signing_vendors)},
      {"vendor_only_vendors", set_json(issuers.vendor_only_vendors)},
  });
}

obs::Json report_ct(StreamIngest& ingest, const core::CertDataset& certs) {
  core::CtReport ct =
      core::ct_report(certs, ingest.world(), ingest.config().jobs);
  obs::Json::Array anomalies;
  for (const core::CtPoint& p : ct.public_not_logged) {
    anomalies.emplace_back(obs::Json::Object{
        {"sni", p.sni},
        {"vendor", p.vendor},
        {"issuer", p.leaf_issuer},
    });
  }
  return obs::Json(obs::Json::Object{
      {"report", "ct"},
      {"tuples", static_cast<std::int64_t>(ct.tuples)},
      {"public_leaves", static_cast<std::int64_t>(ct.public_leaves)},
      {"public_leaves_in_ct",
       static_cast<std::int64_t>(ct.public_leaves_in_ct)},
      {"public_not_logged", std::move(anomalies)},
      {"private_leaves", static_cast<std::int64_t>(ct.private_leaves)},
      {"private_leaves_in_ct",
       static_cast<std::int64_t>(ct.private_leaves_in_ct)},
      {"max_public_validity", ct.max_public_validity},
      {"max_private_validity", ct.max_private_validity},
  });
}

obs::Json report_stacks(StreamIngest& ingest, const core::CertDataset& certs) {
  // Server-side dual of Table 4/5: instead of clustering *clients* by the
  // fingerprints they send, cluster *servers* by the stack fingerprint the
  // battery elicits. Clusters are keyed on the New York / IPv4 digest (the
  // paper's primary vantage).
  const net::StackSurvey& survey = ingest.stacks();
  const core::CertIndex& ix = certs.index();

  struct Cluster {
    std::vector<std::string> servers;  // records() order == lexicographic
    std::set<std::string> vendors;
  };
  std::map<std::string, Cluster> clusters;
  std::size_t fingerprinted = 0;
  std::size_t unanswered = 0;
  for (const net::ServerStackResult& result : survey.results) {
    const net::StackFingerprint* fp =
        result.at(net::VantagePoint::kNewYork, net::AddressFamily::kIPv4);
    if (fp == nullptr || !fp->answered) {
      ++unanswered;
      continue;
    }
    ++fingerprinted;
    Cluster& cluster = clusters[fp->digest];
    cluster.servers.push_back(result.sni);
    // Annotate the cluster with the vendors that talk to its servers.
    std::uint32_t sni = ix.snis().find(result.sni);
    if (sni != core::CertIndex::kNone) {
      for (std::uint32_t v : ix.sni_vendors()[sni]) {
        cluster.vendors.insert(ix.vendors().str(v));
      }
    }
  }

  // Rows: clusters of >= 2 servers, largest first, digest breaking ties.
  std::vector<std::pair<std::string, const Cluster*>> ordered;
  for (const auto& [digest, cluster] : clusters) {
    if (cluster.servers.size() >= 2) ordered.emplace_back(digest, &cluster);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              if (a.second->servers.size() != b.second->servers.size()) {
                return a.second->servers.size() > b.second->servers.size();
              }
              return a.first < b.first;
            });

  std::size_t clustered_servers = 0;
  std::size_t cross_vendor_clusters = 0;
  obs::Json::Array rows;
  for (const auto& [digest, cluster] : ordered) {
    clustered_servers += cluster->servers.size();
    bool cross_vendor = cluster->vendors.size() > 1;
    if (cross_vendor) ++cross_vendor_clusters;
    obs::Json::Array fqdns;
    for (std::size_t i = 0; i < cluster->servers.size() && i < 5; ++i) {
      fqdns.emplace_back(cluster->servers[i]);
    }
    rows.emplace_back(obs::Json::Object{
        {"digest", digest},
        {"servers", static_cast<std::int64_t>(cluster->servers.size())},
        {"example_fqdns", obs::Json(std::move(fqdns))},
        {"vendors", set_json(cluster->vendors)},
        {"cross_vendor", cross_vendor},
    });
  }

  return obs::Json(obs::Json::Object{
      {"report", "stacks"},
      {"battery",
       static_cast<std::int64_t>(
           net::StackFingerprinter::standard_battery().size())},
      {"servers_fingerprinted", static_cast<std::int64_t>(fingerprinted)},
      {"unanswered", static_cast<std::int64_t>(unanswered)},
      {"distinct_stacks", static_cast<std::int64_t>(clusters.size())},
      {"clustered_servers", static_cast<std::int64_t>(clustered_servers)},
      {"cross_vendor_clusters",
       static_cast<std::int64_t>(cross_vendor_clusters)},
      {"rows", std::move(rows)},
  });
}

obs::Json report_dualstack(StreamIngest& ingest,
                           const core::CertDataset& certs) {
  // Table 16 extended across address families: does the v6 frontend serve
  // the same stack and certificate the v4 frontend does? Compared at New
  // York, the paper's primary vantage.
  const net::StackSurvey& survey = ingest.stacks();
  const core::CertIndex& ix = certs.index();

  std::size_t snis = 0;
  std::size_t v4_unanswered = 0;
  std::size_t v6_absent = 0;
  std::size_t consistent = 0;
  std::size_t stack_divergent = 0;
  std::size_t cert_divergent = 0;
  obs::Json::Array rows;
  for (const net::ServerStackResult& result : survey.results) {
    ++snis;
    const net::StackFingerprint* v4 =
        result.at(net::VantagePoint::kNewYork, net::AddressFamily::kIPv4);
    const net::StackFingerprint* v6 =
        result.at(net::VantagePoint::kNewYork, net::AddressFamily::kIPv6);
    if (v4 == nullptr || !v4->answered) {
      ++v4_unanswered;
      continue;
    }
    if (v6 == nullptr || !v6->answered) {
      ++v6_absent;  // no AAAA record (or a dark v6 frontend)
      continue;
    }
    bool stack_div = v4->digest != v6->digest;
    bool cert_div = !v4->leaf_fp.empty() && !v6->leaf_fp.empty() &&
                    v4->leaf_fp != v6->leaf_fp;
    if (!stack_div && !cert_div) {
      ++consistent;
      continue;
    }
    if (stack_div) ++stack_divergent;
    if (cert_div) ++cert_divergent;
    std::set<std::string> vendors;
    std::uint32_t sni = ix.snis().find(result.sni);
    if (sni != core::CertIndex::kNone) vendors = ix.vendor_names(sni);
    rows.emplace_back(obs::Json::Object{
        {"sni", result.sni},
        {"stack_divergent", stack_div},
        {"cert_divergent", cert_div},
        {"v4_digest", v4->digest},
        {"v6_digest", v6->digest},
        {"vendors", set_json(vendors)},
    });
  }

  return obs::Json(obs::Json::Object{
      {"report", "dualstack"},
      {"snis", static_cast<std::int64_t>(snis)},
      {"v4_unanswered", static_cast<std::int64_t>(v4_unanswered)},
      {"v6_absent", static_cast<std::int64_t>(v6_absent)},
      {"consistent", static_cast<std::int64_t>(consistent)},
      {"stack_divergent", static_cast<std::int64_t>(stack_divergent)},
      {"cert_divergent", static_cast<std::int64_t>(cert_divergent)},
      {"rows", std::move(rows)},
  });
}

obs::Json error_doc(const std::string& message) {
  return obs::Json(obs::Json::Object{{"error", message}});
}

}  // namespace

const std::vector<std::string>& report_names() {
  static const std::vector<std::string> names = {
      "table02", "table03", "table04", "table05", "certs",
      "chains",  "issuers", "ct",      "stacks",  "dualstack",
  };
  return names;
}

std::optional<obs::Json> render_report(const std::string& name,
                                       StreamIngest& ingest) {
  const core::ClientDataset& ds = ingest.client();
  if (name == "table02") return report_table02(ds);
  if (name == "table03") return report_table03(ds);
  if (name == "table04") return report_table04(ds);
  if (name == "table05") return report_table05(ds);

  if (name == "certs" || name == "chains" || name == "issuers" ||
      name == "ct" || name == "stacks" || name == "dualstack") {
    const core::CertDataset* certs = ingest.certs();
    if (certs == nullptr) {
      return error_doc(ingest.config().certs
                           ? "no epoch folded yet"
                           : "daemon running without --certs");
    }
    if (name == "certs") return report_certs(*certs);
    if (name == "chains") return report_chains(ingest, *certs);
    if (name == "issuers") return report_issuers(ingest, *certs);
    if (name == "stacks") return report_stacks(ingest, *certs);
    if (name == "dualstack") return report_dualstack(ingest, *certs);
    return report_ct(ingest, *certs);
  }
  return std::nullopt;
}

}  // namespace iotls::stream
