// Golden replay: chaos seeds 1–1024 must replay exactly as recorded in
// tests/chaos_golden.txt. Each line holds one seed's verdict, its run
// summary (accepted, rejected, gave_up, retransmissions, data chunks,
// resent ACKs, simulated end time in ns) and the oracle numbers of any
// failures. The file pins replay equivalence, not oracle health: seeds
// that failed when it was recorded are kept as they failed, and
// ChaosScenario.SoakBatchHoldsEveryOracle is the health check.
//
// Every run writes its fresh table to chaos_golden.actual.txt in the
// test's working directory. When a change is MEANT to alter simulated
// behaviour (and says so in its notes), regenerate the file with:
//
//   ctest --test-dir build -R ChaosGolden
//   cp build/tests/chaos_golden.actual.txt tests/chaos_golden.txt
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/chaos/harness.hpp"
#include "src/chaos/scenario.hpp"

#ifndef CHUNKNET_SOURCE_DIR
#error "CHUNKNET_SOURCE_DIR must point at the repository root"
#endif

namespace chunknet {
namespace {

constexpr std::uint64_t kGoldenSeeds = 1024;

std::string golden_line(std::uint64_t seed, const ChaosResult& r) {
  // Failure lines start "oracle-N:"; their wording may change, the
  // oracle numbers may not.
  std::set<int> oracles;
  for (const std::string& f : r.failures) {
    int n = 0;
    if (std::sscanf(f.c_str(), "oracle-%d", &n) == 1) oracles.insert(n);
  }
  std::string ids;
  for (int n : oracles) ids += (ids.empty() ? "" : ",") + std::to_string(n);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "seed=%llu ok=%d accepted=%llu rejected=%llu gave_up=%llu "
                "retx=%llu data_chunks=%llu acks_resent=%llu sim_end_ns=%llu "
                "oracles=%s",
                static_cast<unsigned long long>(seed), r.ok ? 1 : 0,
                static_cast<unsigned long long>(r.tpdus_accepted),
                static_cast<unsigned long long>(r.tpdus_rejected),
                static_cast<unsigned long long>(r.tpdus_gave_up),
                static_cast<unsigned long long>(r.retransmissions),
                static_cast<unsigned long long>(r.data_chunks),
                static_cast<unsigned long long>(r.acks_resent),
                static_cast<unsigned long long>(r.sim_end),
                ids.empty() ? "-" : ids.c_str());
  return buf;
}

TEST(ChaosGolden, SeedsReplayAsRecorded) {
  std::vector<std::string> actual;
  std::ofstream out("chaos_golden.actual.txt");
  for (std::uint64_t seed = 1; seed <= kGoldenSeeds; ++seed) {
    actual.push_back(golden_line(seed, run_chaos(make_scenario(seed))));
    out << actual.back() << "\n";
  }
  out.close();

  const std::string path =
      std::string(CHUNKNET_SOURCE_DIR) + "/tests/chaos_golden.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(golden.size(), actual.size()) << path;

  int mismatches = 0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    if (golden[i] == actual[i]) continue;
    if (++mismatches <= 10) {
      ADD_FAILURE() << "replay differs (chaos_soak --replay " << i + 1
                    << ")\n  golden: " << golden[i]
                    << "\n  actual: " << actual[i];
    }
  }
  EXPECT_EQ(mismatches, 0) << "seeds whose replay changed";
}

}  // namespace
}  // namespace chunknet
