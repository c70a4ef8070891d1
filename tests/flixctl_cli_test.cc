// Command-line contract of flixctl: each subcommand accepts only the flags
// it reads. An unknown or mistyped flag exits 2 with a message naming the
// flag and the subcommand, before the command does any work.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

RunResult RunFlixctl(const std::string& args) {
  const std::string command = std::string(FLIXCTL_PATH) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 256> line{};
  while (std::fgets(line.data(), static_cast<int>(line.size()), pipe) !=
         nullptr) {
    result.output += line.data();
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

class FlixctlCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("flixctl_cli_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    collection_ = (dir_ / "c.flxc").string();
    index_ = (dir_ / "i.flix").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Files() const {
    return "--collection '" + collection_ + "' --index '" + index_ + "'";
  }

  std::filesystem::path dir_;
  std::string collection_;
  std::string index_;
};

TEST_F(FlixctlCliTest, UnknownBuildFlagIsRejectedBeforeBuilding) {
  // --format was removed with the stream index format; it used to be
  // accepted silently.
  const RunResult run = RunFlixctl("build --dblp 20 " + Files() +
                                   " --format heap");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("unknown flag --format for build"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("usage:"), std::string::npos) << run.output;
  EXPECT_FALSE(std::filesystem::exists(collection_));
  EXPECT_FALSE(std::filesystem::exists(index_));
}

TEST_F(FlixctlCliTest, KnownFlagsStillWork) {
  const RunResult build =
      RunFlixctl("build --dblp 20 " + Files() + " --config hybrid");
  ASSERT_EQ(build.exit_code, 0) << build.output;
  const RunResult info = RunFlixctl("--trace info --index '" + index_ + "'");
  EXPECT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("paged (mmap) format"), std::string::npos)
      << info.output;

  // A flag of another subcommand is unknown here; a typo is too.
  const RunResult wrong_command =
      RunFlixctl("info --index '" + index_ + "' --deep");
  EXPECT_EQ(wrong_command.exit_code, 2) << wrong_command.output;
  EXPECT_NE(wrong_command.output.find("unknown flag --deep for info"),
            std::string::npos)
      << wrong_command.output;
  const RunResult typo =
      RunFlixctl("query " + Files() + " --start pub0 --tagg article");
  EXPECT_EQ(typo.exit_code, 2) << typo.output;
  EXPECT_NE(typo.output.find("unknown flag --tagg for query"),
            std::string::npos)
      << typo.output;
}

TEST_F(FlixctlCliTest, UnknownCommandPrintsUsage) {
  const RunResult run = RunFlixctl("frobnicate --index x");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("usage:"), std::string::npos) << run.output;
}

}  // namespace
