// The real thing: a child simrun process writing a snapshot ring is killed
// with SIGKILL mid-run, and a fresh simrun resumes from the ring — the
// resumed per-job CSV must be byte-identical to an uninterrupted run's.
// This is the end-to-end proof that the durability path (fsync + atomic
// rename) leaves a recoverable ring behind an actual process death, not
// just an emulated one.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "testing/temp_path.hpp"

namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t ring_size(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return 0;
  std::size_t count = 0;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".essnap") ++count;
  }
  return count;
}

}  // namespace

TEST(SigkillRestart, ResumedPerJobCsvMatchesUninterruptedRun) {
  const std::string simrun = ES_SIMRUN_BIN;
  const std::string ring_dir = es::testing::unique_temp_path("sigkill_ring");
  const std::string ref_csv = es::testing::unique_temp_path("sigkill_ref.csv");
  const std::string resumed_csv =
      es::testing::unique_temp_path("sigkill_resumed.csv");
  std::error_code ec;
  std::filesystem::remove_all(ring_dir, ec);
  std::remove(ref_csv.c_str());
  std::remove(resumed_csv.c_str());

  // The identical workload/algorithm flags for all three runs; the
  // snapshot cadence and the ring directory are restore-fingerprint
  // neutral by design.
  const std::string common =
      " --synthetic --num-jobs 2000 --load 0.95 --p-extend 0.2 "
      "--p-reduce 0.2 --algorithm Hybrid-LOS-E --seed 5";

  // Reference: uninterrupted.
  ASSERT_EQ(std::system((simrun + common + " --per-job " + ref_csv +
                         " > /dev/null")
                            .c_str()),
            0);
  const std::string reference = read_all(ref_csv);
  ASSERT_FALSE(reference.empty());

  // Child: same run, snapshotting every cycle into the ring.  exec in the
  // shell so the SIGKILL hits simrun itself, not an intermediate sh.
  const std::string child_cmd = "exec " + simrun + common +
                                " --snapshot-every 1 --snapshot-dir " +
                                ring_dir + " >/dev/null 2>&1";
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    execl("/bin/sh", "sh", "-c", child_cmd.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  // Wait until the ring holds at least one committed generation, then
  // SIGKILL the child mid-run.  The per-snapshot fsyncs throttle the child
  // enough that the kill normally lands well before completion; if the
  // child beats us to the finish line the ring still holds its final
  // snapshots and the restore leg below stays meaningful.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (ring_size(ring_dir) < 1 &&
         std::chrono::steady_clock::now() < deadline &&
         waitpid(pid, nullptr, WNOHANG) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_GE(ring_size(ring_dir), 1u)
      << "child produced no snapshot before dying";

  // Fresh process: resume from the ring and write the per-job CSV.
  ASSERT_EQ(std::system((simrun + common + " --restore-from " + ring_dir +
                         " --per-job " + resumed_csv + " > /dev/null")
                            .c_str()),
            0);
  EXPECT_EQ(read_all(resumed_csv), reference);

  std::filesystem::remove_all(ring_dir, ec);
  std::remove(ref_csv.c_str());
  std::remove(resumed_csv.c_str());
}

TEST(SigkillRestart, RestoreFromEmptyRingFailsWithCorruptExitCode) {
  const std::string simrun = ES_SIMRUN_BIN;
  const std::string dir = es::testing::unique_temp_path("sigkill_empty_ring");
  std::filesystem::create_directories(dir);
  const int status = std::system(
      (simrun + " --synthetic --num-jobs 10 --restore-from " + dir +
       " >/dev/null 2>&1")
          .c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 6);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}
