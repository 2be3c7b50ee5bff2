// Table 4: vendor tuples with Jaccard similarity >= 0.2 over their
// fingerprint sets. Paper buckets: {HDHomeRun,Silicondust}=1;
// {Sharp,TCL} in [0.7,1); {Arlo,NETGEAR} in [0.4,0.7); ...
#include "common.hpp"
#include "core/sharing.hpp"
#include "report/table.hpp"
#include "util/strings.hpp"

using namespace iotls;

int main() {
  const auto& ctx = bench::Context::get();
  bench::banner("Table 4", "vendor tuples with Jaccard similarity >= 0.2");

  auto pairs = core::vendor_similarities(ctx.client, 0.2);
  report::Table table({"Jaccard bucket", "Vendor tuple", "jaccard"});
  for (const auto& bucket : core::bucket_similarities(pairs)) {
    std::string label = bucket.lo >= 1.0
                            ? "1"
                            : "[" + fmt_double(bucket.lo, 1) + ", " +
                                  fmt_double(bucket.hi, 1) + ")";
    for (const auto& pair : bucket.pairs) {
      table.add_row({label, "{" + pair.vendor_a + ", " + pair.vendor_b + "}",
                     fmt_double(pair.jaccard, 3)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("\npaper rows include: {HDHomeRun,SiliconDust}=1, {Sharp,TCL} in "
              "[0.7,1), {Arlo,NETGEAR} in [0.4,0.7), {Onkyo,Pioneer}, "
              "{Denon,Marantz}, {Synology,Western Digital}, {Nvidia,Xiaomi}...\n");
  return 0;
}
