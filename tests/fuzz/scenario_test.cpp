// Scenario serialization: the corpus contract.  A scenario must round-trip
// through its file format bit-identically — the in-memory scenario the
// fuzzer ran IS the file the corpus commits and `simrun --scenario` replays.
#include "fuzz/scenario.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "fuzz/hostile.hpp"
#include "testing/temp_path.hpp"

namespace es::fuzz {
namespace {

std::filesystem::path temp_path(const std::string& leaf) {
  return es::testing::unique_temp_path(leaf);
}

TEST(ScenarioFormat, RoundTripsEveryHostileFamily) {
  for (const std::string& family : family_names()) {
    const Scenario original = make_scenario(family, 3);
    const std::string once = format_scenario(original);
    const Scenario reparsed = parse_scenario(once);
    // Bit-identical re-serialization: parse(format(s)) loses nothing.
    EXPECT_EQ(format_scenario(reparsed), once) << family;
    EXPECT_EQ(reparsed.name, original.name);
    EXPECT_EQ(reparsed.family, original.family);
    EXPECT_EQ(reparsed.seed, original.seed);
    EXPECT_EQ(reparsed.expect_completion, original.expect_completion);
    EXPECT_EQ(reparsed.workload.jobs.size(), original.workload.jobs.size());
    EXPECT_EQ(reparsed.workload.eccs.size(), original.workload.eccs.size());
    EXPECT_EQ(reparsed.engine.machine_procs, original.engine.machine_procs);
    EXPECT_EQ(reparsed.engine.requeue, original.engine.requeue);
    EXPECT_EQ(reparsed.engine.failure.enabled, original.engine.failure.enabled);
    EXPECT_EQ(reparsed.engine.failure.script.size(),
              original.engine.failure.script.size());
    EXPECT_EQ(reparsed.engine.checkpoint.enabled,
              original.engine.checkpoint.enabled);
    EXPECT_EQ(reparsed.engine.watchdog.max_events,
              original.engine.watchdog.max_events);
  }
}

TEST(ScenarioFormat, SaveLoadRoundTrip) {
  const Scenario original = make_scenario("outage_cascade", 11);
  const std::string path = temp_path("roundtrip.scn").string();
  ASSERT_TRUE(save_scenario(path, original));
  const Scenario loaded = load_scenario(path);
  EXPECT_EQ(format_scenario(loaded), format_scenario(original));
}

TEST(ScenarioFormat, ParseRejectsUnknownKey) {
  const std::string text = format_scenario(make_scenario("flash_crowd", 1));
  EXPECT_THROW(parse_scenario("mystery-knob = 7\n" + text), ScenarioError);
}

TEST(ScenarioFormat, ParseRejectsMissingWorkloadSection) {
  EXPECT_THROW(parse_scenario("# elastisched scenario v1\n"
                              "scenario-version = 1\n"
                              "name = x\n"),
               ScenarioError);
}

TEST(ScenarioFormat, ParseRejectsMalformedCwfLine) {
  std::string text = format_scenario(make_scenario("heavy_tail", 2));
  text += "not a cwf line at all\n";
  EXPECT_THROW(parse_scenario(text), ScenarioError);
}

TEST(ScenarioFormat, ParseRejectsJobWiderThanMachine) {
  Scenario scenario = make_scenario("flash_crowd", 5);
  scenario.workload.jobs.front().num = scenario.workload.machine_procs * 2;
  EXPECT_THROW(parse_scenario(format_scenario(scenario)), ScenarioError);
}

TEST(ScenarioFormat, LoadDistinguishesIoFromValidation) {
  // Missing file: I/O, reported as a plain runtime_error (simrun exit 3)...
  EXPECT_THROW(load_scenario(temp_path("nonexistent.scn").string()),
               std::runtime_error);
  // ...while malformed content is a ScenarioError (simrun exit 2).
  const std::string bad = temp_path("bad.scn").string();
  std::ofstream(bad) << "scenario-version = 99\n";
  EXPECT_THROW(load_scenario(bad), ScenarioError);
}

TEST(ScenarioFormat, ListCorpusSortsAndFilters) {
  const auto dir = temp_path("corpus_list_test");
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "b.scn") << "x";
  std::ofstream(dir / "a.scn") << "x";
  std::ofstream(dir / "notes.txt") << "x";
  const std::vector<std::string> paths = list_corpus(dir.string());
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_TRUE(paths[0].ends_with("a.scn"));
  EXPECT_TRUE(paths[1].ends_with("b.scn"));
}

TEST(HostileFamilies, DeterministicBySeed) {
  for (const std::string& family : family_names()) {
    EXPECT_EQ(format_scenario(make_scenario(family, 42)),
              format_scenario(make_scenario(family, 42)))
        << family;
    EXPECT_NE(format_scenario(make_scenario(family, 1)),
              format_scenario(make_scenario(family, 2)))
        << family;
  }
}

TEST(HostileFamilies, UnknownFamilyThrows) {
  EXPECT_THROW(make_scenario("volcano", 1), ScenarioError);
}

TEST(HostileFamilies, EccStormCarriesSameInstantConflicts) {
  // The family's reason to exist: at least one job with two same-instant
  // commands in the same dimension (the conflict shield's target).
  const Scenario scenario = make_scenario("ecc_storm", 1);
  bool found = false;
  const auto& eccs = scenario.workload.eccs;
  for (std::size_t i = 1; i < eccs.size() && !found; ++i) {
    found = eccs[i].job_id == eccs[i - 1].job_id &&
            eccs[i].issue == eccs[i - 1].issue &&
            eccs[i].time_dimension() == eccs[i - 1].time_dimension();
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace es::fuzz
