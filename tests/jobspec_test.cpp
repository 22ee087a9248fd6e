// The text form of CampaignJobSpec: set_job_field / render_job_fields are
// the one parser and the one renderer behind spool files, `stcd submit`,
// fleet_sim and the sweep drivers. Covers the round trip of every key, the
// byte-stable spool format, and the bounds every input is held to -- each
// rejected value must be a typed Error naming its key (and, from a spool
// file, the file and line), never a crash, a wraparound or a default.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "jobs/queue.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace stc {
namespace {

namespace fs = std::filesystem;

struct TempSpool {
  std::string path;
  TempSpool() {
    char tmpl[] = "/tmp/stc_jobspec_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempSpool() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// A fleet job with every field away from its default.
CampaignJobSpec full_spec() {
  CampaignJobSpec s;
  s.machine = "dk27";
  s.arch = ArchKind::kFig3;
  s.tech = Technology::kMultiLevel;
  s.bist_cycles = 1'000'000;
  s.functional_cycles = 1;
  s.minimizer = MinimizerKind::kQuineMcCluskey;
  s.with_fault_sim = false;
  s.fleet_instances = 1'000'000'000'000;
  s.fleet_widths = {1, 33, 64};
  s.fleet_distribution = DefectModel::kFaultFree;
  s.fleet_defect_rate = 0.125;
  s.fleet_seed = 18446744073709551615u;
  return s;
}

void expect_same_spec(const CampaignJobSpec& a, const CampaignJobSpec& b) {
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.arch, b.arch);
  EXPECT_EQ(a.tech, b.tech);
  EXPECT_EQ(a.bist_cycles, b.bist_cycles);
  EXPECT_EQ(a.functional_cycles, b.functional_cycles);
  EXPECT_EQ(a.minimizer, b.minimizer);
  EXPECT_EQ(a.with_fault_sim, b.with_fault_sim);
  EXPECT_EQ(a.fleet_instances, b.fleet_instances);
  EXPECT_EQ(a.fleet_widths, b.fleet_widths);
  EXPECT_EQ(a.fleet_distribution, b.fleet_distribution);
  EXPECT_DOUBLE_EQ(a.fleet_defect_rate, b.fleet_defect_rate);
  EXPECT_EQ(a.fleet_seed, b.fleet_seed);
}

/// Feed every `key = value` line of render_job_fields back through
/// set_job_field, into a default spec.
CampaignJobSpec reparse(const CampaignJobSpec& spec, std::size_t* keys) {
  CampaignJobSpec back;
  std::istringstream lines(render_job_fields(spec));
  std::string line;
  *keys = 0;
  while (std::getline(lines, line)) {
    const auto eq = line.find(" = ");
    if (eq == std::string::npos) {
      ADD_FAILURE() << "not a key = value line: " << line;
      continue;
    }
    set_job_field(back, line.substr(0, eq), line.substr(eq + 3));
    ++*keys;
  }
  return back;
}

TEST(JobSpec, EveryKeyRoundTrips) {
  std::size_t keys = 0;
  expect_same_spec(reparse(full_spec(), &keys), full_spec());
  EXPECT_EQ(keys, 12u);

  // A non-fleet job renders (and needs) only the seven campaign keys.
  CampaignJobSpec plain;
  plain.machine = "shiftreg";
  plain.arch = ArchKind::kFig4;
  expect_same_spec(reparse(plain, &keys), plain);
  EXPECT_EQ(keys, 7u);

  for (const auto& [arch, tech, minimizer, model] :
       {std::tuple{ArchKind::kFig1, Technology::kTwoLevel, MinimizerKind::kAuto,
                   DefectModel::kSingleUniform},
        std::tuple{ArchKind::kFig2, Technology::kMultiLevel,
                   MinimizerKind::kEspresso, DefectModel::kClustered}}) {
    CampaignJobSpec s = full_spec();
    s.arch = arch;
    s.tech = tech;
    s.minimizer = minimizer;
    s.fleet_distribution = model;
    expect_same_spec(reparse(s, &keys), s);
  }
}

TEST(JobSpec, SpoolFormatIsByteStable) {
  // The exact bytes spool files have always had; a reformatting would
  // change every job id's file on disk and break older readers.
  SpoolJob job;
  job.spec = full_spec();
  job.budget_ms = 1234.5;
  job.attempts = 2;
  job.recoveries = 1;
  job.not_before_unix_ms = 42;
  EXPECT_EQ(render_spool_job(job),
            "# stc job spec\n"
            "machine = dk27\n"
            "arch = fig3\n"
            "tech = multi_level\n"
            "bist_cycles = 1000000\n"
            "functional_cycles = 1\n"
            "minimizer = qm\n"
            "faultsim = 0\n"
            "fleet_instances = 1000000000000\n"
            "fleet_widths = 1,33,64\n"
            "fleet_distribution = fault_free\n"
            "fleet_defect_rate = 0.125000\n"
            "fleet_seed = 18446744073709551615\n"
            "budget_ms = 1234.500\n"
            "attempts = 2\n"
            "recoveries = 1\n"
            "not_before_unix_ms = 42\n");

  SpoolJob plain;
  plain.spec.machine = "dk27";
  EXPECT_EQ(render_spool_job(plain),
            "# stc job spec\n"
            "machine = dk27\n"
            "arch = fig1\n"
            "tech = two_level\n"
            "bist_cycles = 256\n"
            "functional_cycles = 512\n"
            "minimizer = auto\n"
            "faultsim = 1\n"
            "budget_ms = -1.000\n"
            "attempts = 0\n"
            "recoveries = 0\n"
            "not_before_unix_ms = 0\n");
}

/// A spool file as written while the evaluator or the lane width was a job
/// option: each carried `engine = event|flat` and/or `lanes = 64|256|512`
/// lines after `tech`.
std::string spool_text_with(const std::string& retired_lines) {
  return "# stc job spec\n"
         "machine = shiftreg\n"
         "arch = fig2\n"
         "tech = two_level\n" +
         retired_lines +
         "bist_cycles = 64\n"
         "functional_cycles = 512\n"
         "minimizer = auto\n"
         "faultsim = 1\n"
         "budget_ms = -1.000\n"
         "attempts = 0\n"
         "recoveries = 0\n"
         "not_before_unix_ms = 0\n";
}

/// Parses each set of retired lines into a spool job and checks it equals
/// the same job written without them, spec and rendered text alike.
void expect_retired_lines_are_no_ops(std::initializer_list<const char*> retired) {
  const SpoolJob without = parse_spool_job(spool_text_with(""), "new.job");
  for (const char* lines : retired) {
    const SpoolJob with = parse_spool_job(spool_text_with(lines), "old.job");
    expect_same_spec(with.spec, without.spec);
    EXPECT_EQ(render_spool_job(with), render_spool_job(without)) << lines;
  }
}

TEST(JobSpec, RetiredEngineKeyParsesAsNoOp) {
  expect_retired_lines_are_no_ops(
      {"engine = event\n", "engine = flat\n", "engine = flat\nlanes = 64\n",
       "engine = event\nlanes = 512\n"});
  // Nothing writes the key any more.
  const SpoolJob without = parse_spool_job(spool_text_with(""), "new.job");
  EXPECT_EQ(render_spool_job(without).find("engine"), std::string::npos);
}

TEST(JobSpec, RetiredLanesKeyParsesAsNoOp) {
  expect_retired_lines_are_no_ops({"lanes = 64\n", "lanes = 256\n", "lanes = 512\n"});
  // Nothing writes the key any more.
  const SpoolJob without = parse_spool_job(spool_text_with(""), "new.job");
  EXPECT_EQ(render_spool_job(without).find("lanes"), std::string::npos);

  // The retired key still takes only the values it once took.
  for (const char* bad : {"0", "1", "63", "128", "1024"}) {
    CampaignJobSpec s;
    try {
      set_job_field(s, "lanes", bad);
      ADD_FAILURE() << "lanes=" << bad << " accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << "lanes=" << bad;
      EXPECT_EQ(e.context().rfind(std::string("key=lanes; value=") + bad, 0), 0u)
          << e.context();
    }
  }
}

TEST(JobSpec, BoundaryValuesAreAccepted) {
  const std::vector<std::pair<std::string, std::string>> ok = {
      {"lanes", "64"},           {"lanes", "256"},
      {"lanes", "512"},          {"bist_cycles", "1"},
      {"bist_cycles", "1000000"}, {"functional_cycles", "1"},
      {"functional_cycles", "1000000"}, {"faultsim", "0"},
      {"faultsim", "1"},         {"fleet_instances", "0"},
      {"fleet_instances", "1000000000000"}, {"fleet_widths", "1"},
      {"fleet_widths", "64, 1"}, {"fleet_defect_rate", "0"},
      {"fleet_defect_rate", "1"}, {"fleet_defect_rate", "1e-3"},
      {"fleet_seed", "0"},       {"fleet_seed", "18446744073709551615"},
  };
  for (const auto& [key, value] : ok) {
    CampaignJobSpec s;
    EXPECT_NO_THROW(set_job_field(s, key, value)) << key << " = " << value;
  }
  CampaignJobSpec s;
  set_job_field(s, "fleet_widths", "64, 1");
  EXPECT_EQ(s.fleet_widths, (std::vector<std::size_t>{64, 1}));
}

/// Every value here must be rejected: the defect inputs that used to crash,
/// wrap or fall back silently, plus the first value past each bound.
const std::vector<std::pair<std::string, std::string>>& rejected() {
  static const std::vector<std::pair<std::string, std::string>> bad = {
      {"machine", ""},
      {"arch", "fig9"},
      {"tech", "three_level"},
      {"engine", "quantum"},  // the retired key still takes only event|flat
      {"engine", "serial"},  // measure_coverage is the one serial oracle
      {"minimizer", "magic"},
      {"fleet_distribution", "bogus"},
      {"lanes", "4294967360"},  // used to wrap to 64
      {"lanes", "4294967297"},  // used to be reported as "lane count 1"
      {"lanes", "18446744073709551680"},  // overflows u64 (2^64 + 64)
      {"lanes", "63"},
      {"lanes", "65"},
      {"lanes", "128"},
      {"lanes", "513"},
      {"lanes", "64x"},
      {"bist_cycles", "0"},
      {"bist_cycles", "1000001"},
      {"bist_cycles", "18446744073709551615"},
      {"bist_cycles", "18446744073709551617"},  // used to wrap to 1
      {"bist_cycles", "-5"},
      {"bist_cycles", "1e3"},
      {"functional_cycles", "0"},
      {"functional_cycles", "1000001"},
      {"faultsim", "2"},
      {"faultsim", "yes"},
      {"fleet_instances", "1000000000001"},
      {"fleet_instances", "1e300"},
      {"fleet_instances", "1e15"},
      {"fleet_instances", "1e6"},
      {"fleet_instances", "64x"},
      {"fleet_widths", ""},
      {"fleet_widths", "0"},
      {"fleet_widths", "65"},
      {"fleet_widths", "8,x"},
      {"fleet_widths", "8,,16"},
      {"fleet_defect_rate", "abc"},
      {"fleet_defect_rate", ""},
      {"fleet_defect_rate", "-0.000001"},
      {"fleet_defect_rate", "1.000001"},
      {"fleet_defect_rate", "0.5x"},
      {"fleet_defect_rate", "nan"},
      {"fleet_defect_rate", "inf"},
      {"fleet_seed", "18446744073709551616"},
      {"fleet_seed", "-1"},
      {"no_such_key", "1"},
  };
  return bad;
}

TEST(JobSpec, OutOfBoundsValuesThrowNamingTheKey) {
  for (const auto& [key, value] : rejected()) {
    CampaignJobSpec s = full_spec();
    try {
      set_job_field(s, key, value);
      ADD_FAILURE() << key << " = '" << value << "' accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << key << " = " << value;
      EXPECT_EQ(e.context().rfind("key=" + key + "; value=" + value, 0), 0u)
          << e.context();
    }
    // A rejected value leaves the spec as it was.
    expect_same_spec(s, full_spec());
  }
}

TEST(JobSpec, SpoolParseErrorsNameFileLineAndKey) {
  for (const auto& [key, value] : rejected()) {
    const std::string text = "machine = dk27\n" + key + " = " + value + "\n";
    try {
      parse_spool_job(text, "bad.job");
      ADD_FAILURE() << key << " = '" << value << "' accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << key << " = " << value;
      EXPECT_NE(e.context().find("file=bad.job; line=2; key=" + key),
                std::string::npos)
          << e.context();
    }
  }
}

TEST(JobSpec, SpoolBudgetMustBeFinite) {
  for (const char* value : {"inf", "-inf", "nan", "1e999"}) {
    try {
      parse_spool_job(std::string("machine = dk27\nbudget_ms = ") + value + "\n",
                      "budget.job");
      ADD_FAILURE() << "budget_ms = " << value << " accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
      EXPECT_NE(e.context().find("key=budget_ms"), std::string::npos);
    }
  }
  EXPECT_DOUBLE_EQ(
      parse_spool_job("machine = dk27\nbudget_ms = 1e12\n", "ok.job").budget_ms,
      1e12);
}

TEST(JobSpec, MalformedSpoolFileRetiresAsInvalidInput) {
  TempSpool spool;
  JobQueue queue(spool.path);
  const std::string id = "0000000000000001-00001-0000";
  {
    std::ofstream os(spool.path + "/pending/" + id + ".job");
    os << "machine = dk27\nlanes = 4294967360\n";
  }
  EXPECT_FALSE(queue.claim().has_value());
  EXPECT_EQ(queue.list_failed(), std::vector<std::string>{id});
  const auto r = queue.result(id);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, "failed");
  EXPECT_EQ(r->error_code, "invalid_input");
  EXPECT_NE(r->error.find("key=lanes"), std::string::npos) << r->error;
}

TEST(JobSpec, DriverFlagsGoThroughTheSameParser) {
  std::vector<std::string> args = {"prog",       "--instances", "12",
                                   "--widths",   "8,16",        "--defect-rate",
                                   "0.5",        "--cycles",    "32"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const Cli cli(static_cast<int>(argv.size()), argv.data());

  CampaignJobSpec spec;
  spec.machine = "dk27";  // a driver default the flags leave alone
  set_job_flags(spec, cli,
                {{"machine", "machine"}, {"instances", "fleet_instances"},
                 {"widths", "fleet_widths"}, {"defect-rate", "fleet_defect_rate"},
                 {"cycles", "bist_cycles"}, {"tech", "tech"}});
  EXPECT_EQ(spec.machine, "dk27");
  EXPECT_EQ(spec.fleet_instances, 12u);
  EXPECT_EQ(spec.fleet_widths, (std::vector<std::size_t>{8, 16}));
  EXPECT_DOUBLE_EQ(spec.fleet_defect_rate, 0.5);
  EXPECT_EQ(spec.bist_cycles, 32u);
  EXPECT_EQ(spec.tech, Technology::kTwoLevel);  // --tech not given

  std::vector<std::string> bad_args = {"prog", "--defect-rate", "abc"};
  std::vector<char*> bad_argv;
  for (std::string& a : bad_args) bad_argv.push_back(a.data());
  const Cli bad(static_cast<int>(bad_argv.size()), bad_argv.data());
  try {
    set_job_flags(spec, bad, {{"defect-rate", "fleet_defect_rate"}});
    FAIL() << "--defect-rate abc accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_EQ(e.context().rfind("flag=--defect-rate; key=fleet_defect_rate", 0),
              0u)
        << e.context();
  }
}

#ifdef STC_DAEMON_BIN

/// Exit status of `stcd submit <spool> <flags...>`, stdout/stderr muted.
int run_submit(const std::string& spool, std::vector<std::string> flags) {
  std::vector<std::string> args = {STC_DAEMON_BIN, "submit", spool};
  for (std::string& f : flags) args.push_back(std::move(f));
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(STC_DAEMON_BIN, argv.data());
    std::_Exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::size_t pending_entries(const std::string& spool) {
  std::error_code ec;
  std::size_t n = 0;
  for (auto it = fs::directory_iterator(spool + "/pending", ec);
       !ec && it != fs::directory_iterator(); ++it)
    ++n;
  return n;
}

TEST(JobSpec, SubmitRejectsMalformedFlagsWithExitTwo) {
  for (const std::vector<std::string>& flags :
       {std::vector<std::string>{"--defect-rate", "abc"},
        std::vector<std::string>{"--fleet-widths", "8,x"},
        // The lane kernel picks its evaluator and its width: no driver
        // takes --engine or --lanes.
        std::vector<std::string>{"--engine", "flat"},
        std::vector<std::string>{"--lanes", "512"}}) {
    TempSpool spool;
    std::vector<std::string> all = {"--machine", "dk27"};
    all.insert(all.end(), flags.begin(), flags.end());
    EXPECT_EQ(run_submit(spool.path, all), 2) << flags[0] << " " << flags[1];
    EXPECT_EQ(pending_entries(spool.path), 0u) << flags[0] << " " << flags[1];
  }
  // The same spool accepts a well-formed submission.
  TempSpool spool;
  EXPECT_EQ(run_submit(spool.path, {"--machine", "dk27", "--defect-rate", "0.5"}),
            0);
  EXPECT_EQ(pending_entries(spool.path), 1u);
}

#endif  // STC_DAEMON_BIN

}  // namespace
}  // namespace stc
