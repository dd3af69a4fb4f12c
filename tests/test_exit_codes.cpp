// Regression lock on the CLI exit-code contract documented in README:
//   0 ok | 2 usage error | 3 lost batches / failed requests |
//   4 integrity failure | 5 drained on signal
// Deploy tooling branches on these codes (a rollout kill must read as a
// drain, not a crash; a sha256 mismatch must read as integrity, not a
// typo), so each code is pinned by actually running the binary.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#ifndef SNICIT_CLI_BIN
#error "SNICIT_CLI_BIN must point at the snicit_cli binary"
#endif

namespace {

int run_cli(const std::string& args) {
  const std::string command = std::string(SNICIT_CLI_BIN) + " " + args +
                              " > /dev/null 2> /dev/null";
  const int status = std::system(command.c_str());
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

const char kTinyNet[] = "--neurons 64 --layers 4 --batch 8";

TEST(ExitCodes, CleanRunExitsZero) {
  EXPECT_EQ(run_cli(std::string("run ") + kTinyNet + " --engine reference"),
            0);
  // --spmm forces the kernel and epilogue of the default SNICIT engine.
  EXPECT_EQ(run_cli(std::string("run ") + kTinyNet +
                    " --spmm gather_simd+split"),
            0);
}

TEST(ExitCodes, UsageErrorsExitTwo) {
  EXPECT_EQ(run_cli(""), 0);                      // bare invocation = help
  EXPECT_EQ(run_cli("frobnicate"), 2);            // unknown command
  EXPECT_EQ(run_cli(std::string("run ") + kTinyNet +
                    " --engine no-such-engine"),
            2);
  EXPECT_EQ(run_cli(std::string("run ") + kTinyNet +
                    " --engine reference --no-such-flag 1"),
            2);
  EXPECT_EQ(run_cli(std::string("run ") + kTinyNet + " --spmm warp"), 2);
  EXPECT_EQ(run_cli("verify-manifest"), 2);       // --models is required
}

TEST(ExitCodes, LostBatchesExitThree) {
  // worker_throw at p=1.0 with a single attempt fails every streamed
  // batch: work was lost, the exit code must say so. Four batches keep
  // the executor on the pooled-worker path where the site lives (one or
  // two batches fall back to the serial streamer).
  EXPECT_EQ(run_cli("run --neurons 64 --layers 4 --batch 16"
                    " --engine reference --stream 4 --workers 2"
                    " --faults worker_throw:1.0 --faults-seed 1"
                    " --max-attempts 1"),
            3);
}

TEST(ExitCodes, IntegrityFailuresExitFour) {
  // A journal that is not a journal: replay must refuse with the
  // integrity code, not a usage error and not a zero.
  const std::string bogus = ::testing::TempDir() + "snicit_bogus.journal";
  {
    std::ofstream out(bogus, std::ios::binary | std::ios::trunc);
    out << "this is not a journal";
  }
  EXPECT_EQ(run_cli(std::string("replay-journal ") + kTinyNet +
                    " --engine reference --journal " + bogus),
            4);
}

TEST(ExitCodes, SignalDrainExitsFive) {
  // --self-sigterm raises SIGTERM mid-submission: intake closes, accepted
  // requests drain, and the exit reports "drained on signal", not loss.
  EXPECT_EQ(run_cli(std::string("run ") + kTinyNet +
                    " --engine reference --serve-requests 4" +
                    " --self-sigterm 2"),
            5);
}

}  // namespace
