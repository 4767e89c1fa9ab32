// Per-test scratch paths.  ctest runs every TEST as its own process, and
// `ctest -j` runs them concurrently, so two tests writing one fixed name
// under ::testing::TempDir() race on it.  Keying the name on the running
// test and the process id gives every test its own files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace es::testing {

/// TempDir() + "<Suite>.<Test>.<pid>.<leaf>"; `leaf` keeps the files of one
/// test apart.  Call from inside a test (or its fixture's SetUp).
/// Parameterized names lose their '/' separators.
inline std::string unique_temp_path(const std::string& leaf) {
  const ::testing::TestInfo& info =
      *::testing::UnitTest::GetInstance()->current_test_info();
  std::string name =
      std::string(info.test_suite_name()) + "." + info.name();
  for (char& c : name)
    if (c == '/') c = '_';
  return ::testing::TempDir() + name + "." + std::to_string(::getpid()) +
         "." + leaf;
}

}  // namespace es::testing
