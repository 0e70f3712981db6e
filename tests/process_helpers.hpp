// Child-process plumbing shared by the process-level e2e tests: they start
// the tool binaries that the build puts next to the test executable.
#pragma once

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace cohesion::e2e {

/// Directory of the running test binary: where the tools are built.
inline std::string build_dir() {
  char buf[4096];
  const ::ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return std::filesystem::path(buf).parent_path().string();
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Exit code of a finished child: WEXITSTATUS, or 128+signal (shell style).
inline int wait_code(::pid_t pid) {
  int st = 0;
  ::waitpid(pid, &st, 0);
  if (WIFEXITED(st)) return WEXITSTATUS(st);
  if (WIFSIGNALED(st)) return 128 + WTERMSIG(st);
  return -1;
}

/// Start args[0] with args, stdout and stderr appended to log_path.
inline ::pid_t spawn_tool(const std::vector<std::string>& args, const std::string& log_path) {
  std::vector<std::string> copy = args;
  const ::pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log >= 0) {
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    if (log > STDERR_FILENO) ::close(log);
  }
  std::vector<char*> argv;
  for (std::string& a : copy) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  ::_exit(127);
}

inline int run_tool(const std::vector<std::string>& args, const std::string& log_path) {
  return wait_code(spawn_tool(args, log_path));
}

}  // namespace cohesion::e2e
