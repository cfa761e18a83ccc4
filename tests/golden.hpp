// Shared golden-file check for the byte-stability tests.
//
// A golden test renders some deterministic output and hands it to
// check_golden together with the fixture path.  Normally the fixture is
// read and compared byte for byte; a mismatch reports the first diverging
// line.  With TV_UPDATE_GOLDEN set in the environment the fixture is
// rewritten instead and the test is marked skipped, so an intentional
// behaviour change is one command plus a review of the fixture diff:
//
//     TV_UPDATE_GOLDEN=1 ./build/tests/<binary> --gtest_filter='<Suite>.*'
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef TV_TEST_DATA_DIR
#error "TV_TEST_DATA_DIR must point at tests/data"
#endif

namespace tv::test {

/// Absolute path of a fixture under tests/data.
inline std::string data_path(const std::string& name) {
  return std::string{TV_TEST_DATA_DIR} + "/" + name;
}

inline bool updating_golden() {
  return std::getenv("TV_UPDATE_GOLDEN") != nullptr;
}

/// The file's bytes, or "" when it cannot be read.
inline std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Compares `actual` with the fixture at `path` (or rewrites the fixture
/// under TV_UPDATE_GOLDEN).  Fails the current test on any difference.
inline void check_golden(const std::string& path, const std::string& actual) {
  ASSERT_FALSE(actual.empty()) << "empty output for " << path;
  if (updating_golden()) {
    std::ofstream out{path, std::ios::binary};
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "fixture regenerated at " << path;
  }

  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty()) << "missing fixture " << path
                                 << "; regenerate with TV_UPDATE_GOLDEN=1";
  if (actual == expected) return;

  std::istringstream a{actual}, e{expected};
  std::string al, el;
  int line = 1;
  while (std::getline(a, al) && std::getline(e, el) && al == el) ++line;
  FAIL() << "output diverged from " << path << " at line " << line
         << " (" << actual.size() << " bytes vs " << expected.size()
         << " expected)\n  expected: " << el << "\n  actual:   " << al
         << "\nIf the change is intentional, regenerate the fixture with "
            "TV_UPDATE_GOLDEN=1 and review the diff.";
}

}  // namespace tv::test
