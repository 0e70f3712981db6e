#include "run/runner_process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "run/exit_codes.hpp"
#include "run/line_log.hpp"
#include "run/shard.hpp"

namespace cohesion::run {

std::string sibling_runner() {
  char buf[4096];
  const ::ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "cohesion_run";
  buf[n] = '\0';
  const std::string exe(buf);
  const std::size_t slash = exe.rfind('/');
  if (slash == std::string::npos) return "cohesion_run";
  return exe.substr(0, slash + 1) + "cohesion_run";
}

JournalStat stat_journal(const std::string& path) {
  JournalStat s;
  std::ifstream in(path, std::ios::binary);
  if (!in) return s;
  std::size_t lines = 0;
  char chunk[1 << 14];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    const std::streamsize got = in.gcount();
    s.bytes += static_cast<std::size_t>(got);
    lines += static_cast<std::size_t>(std::count(chunk, chunk + got, '\n'));
    if (got < static_cast<std::streamsize>(sizeof(chunk))) break;
  }
  s.outcome_lines = lines > 0 ? lines - 1 : 0;  // line 1 is the header
  return s;
}

bool read_journal_outcomes(const std::string& path, std::vector<RunOutcome>& outcomes) {
  outcomes.clear();
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  const std::vector<std::string_view> lines = complete_lines(content);  // torn tail ignored
  for (std::size_t i = 1; i < lines.size(); ++i) {  // line 1 is the header
    try {
      outcomes.push_back(RunOutcome::from_json(Json::parse(lines[i])));
    } catch (const std::exception&) {
      // A live runner owns this file; skip anything unreadable rather than
      // fail supervision over a monitoring read.
    }
  }
  return !lines.empty();
}

std::vector<RunOutcome> JournalWatch::poll(JournalStat& stat) {
  stat = stat_journal(path_);
  if (stat.bytes == bytes_) return {};
  if (stat.bytes < bytes_) sent_ = 0;  // rewritten (e.g. torn tail truncated)
  bytes_ = stat.bytes;
  std::vector<RunOutcome> all;
  read_journal_outcomes(path_, all);
  const std::size_t seen = std::min(sent_, all.size());
  sent_ = all.size();
  all.erase(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(seen));
  return all;
}

namespace {

/// Whether `path` holds a well-formed partial report for shard `shard` of
/// `of`; `why` names the defect otherwise.
bool partial_covers(const std::string& path, std::size_t shard, std::size_t of,
                    std::string& why) {
  try {
    const Json doc = Json::parse_file(path);
    if (!doc.is_object() || doc.string_or("format", "") != kPartialReportFormat) {
      why = "not a partial report";
      return false;
    }
    const Json& sh = doc.at("shard");
    if (sh.at("index").as_uint() != shard || sh.at("count").as_uint() != of) {
      why = "partial report belongs to another shard";
      return false;
    }
    for (const Json& r : doc.at("runs").items()) (void)RunOutcome::from_json(r);
    return true;
  } catch (const std::exception& e) {
    why = e.what();
    return false;
  }
}

}  // namespace

RunnerExit classify_runner_exit(int wait_status, const std::string& partial_path,
                                std::size_t shard, std::size_t of) {
  RunnerExit out;
  if (!WIFEXITED(wait_status)) {
    out.exit_code = kExitTransient;
    out.reason = WIFSIGNALED(wait_status)
                     ? "killed by signal " + std::to_string(WTERMSIG(wait_status))
                     : "runner ended abnormally";
    return out;
  }
  const int code = WEXITSTATUS(wait_status);
  out.exit_code = code;
  std::string why;
  if (partial_covers(partial_path, shard, of, why)) {
    out.kind = RunnerExit::Kind::covered;
    out.reason = "exit " + std::to_string(code);
  } else if (code == kExitSuccess) {
    out.exit_code = kExitTransient;
    out.reason = "exit 0 but partial report unusable (" + why + ")";
  } else {
    out.kind = exit_code_retryable(code) ? RunnerExit::Kind::transient
                                         : RunnerExit::Kind::permanent;
    out.reason = "exit code " + std::to_string(code);
  }
  return out;
}

RunnerProcess::RunnerProcess(RunnerCommand command)
    : command_(std::move(command)), journal_(command_.journal_path()) {
  ::unlink(command_.partial_path().c_str());
  std::vector<std::string> args = {
      command_.runner, command_.spec_path,
      "--shard", std::to_string(command_.shard) + "/" + std::to_string(command_.of),
      "--resume", command_.journal_path(),
      "--out", command_.partial_path(),
      "--threads", std::to_string(std::max<std::size_t>(command_.threads, 1)),
  };
  if (command_.throttle_ms > 0) {
    args.push_back("--throttle-ms");
    args.push_back(std::to_string(command_.throttle_ms));
  }
  const std::string log_path = command_.stem + ".log";
  pid_ = ::fork();
  if (pid_ < 0) {
    const std::string why = std::strerror(errno);
    launch_failure_ = RunnerExit{.exit_code = kExitTransient, .reason = "fork failed (" + why + ")"};
  } else if (pid_ == 0) {
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      if (log > STDERR_FILENO) ::close(log);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failure — reported through the exit status
  }
}

RunnerProcess::~RunnerProcess() {
  if (pid_ > 0) (void)kill();
}

std::optional<RunnerExit> RunnerProcess::poll() {
  if (launch_failure_) return std::exchange(launch_failure_, std::nullopt);
  if (pid_ <= 0) return std::nullopt;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) != pid_) return std::nullopt;
  pid_ = -1;
  return classify_runner_exit(status, command_.partial_path(), command_.shard, command_.of);
}

void RunnerProcess::signal(int sig) const {
  if (pid_ > 0) ::kill(pid_, sig);
}

RunnerExit RunnerProcess::kill() {
  signal(SIGKILL);
  return wait_and_classify();
}

RunnerExit RunnerProcess::stop() {
  signal(SIGTERM);
  signal(SIGCONT);  // a SIGSTOPped runner acts on the SIGTERM only once continued
  return wait_and_classify();
}

RunnerExit RunnerProcess::wait_and_classify() {
  if (pid_ <= 0) return {.exit_code = kExitTransient, .reason = "runner not running"};
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return classify_runner_exit(status, command_.partial_path(), command_.shard, command_.of);
}

}  // namespace cohesion::run
