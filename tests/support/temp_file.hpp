// A per-process temporary file that removes itself.  gtest_discover_tests
// runs every case as its own ctest process, so under `ctest -j` two
// processes writing one fixed TempDir() name race each other (one can
// delete or rewrite the file between the other's write and open).  The
// process id in the name keeps concurrent processes apart, and the
// destructor removes the file even when an assertion ends the case early.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

namespace tbcs::testing_support {

class TempFile {
 public:
  /// `name` is the file's base name; the path is TempDir()/<pid>_<name>.
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + std::to_string(::getpid()) + "_" +
              name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace tbcs::testing_support
