/**
 * @file
 * The benchmark program: runs one workload for a fixed host time, checks
 * every output, and prints its metrics as one JSON object on the last
 * line of standard output. perfbench/README.md describes the
 * workloads, the metrics, the checks and the traced run.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --build-dir <dir> [--commit <id>]
 *   perfbench --self-test
 *
 * --build-dir holds xsim and xloopsd; the run's working files and the
 * traced run's spans go there too. run.py passes every argument.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "asm/assembler.h"
#include "common/json.h"
#include "common/log.h"
#include "common/loop_profile.h"
#include "cpu/threaded.h"
#include "kernels/kernel.h"
#include "service/client.h"
#include "service/protocol.h"
#include "system/config.h"
#include "system/report.h"

extern char **environ;

using namespace xloops;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (p in 0..100). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(p / 100.0 * v.size() + 0.999999);
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

u64
fnv1a(u64 h, const std::string &s)
{
    for (const unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

/** splitmix64: the workload seed's only consumer, so job orders are
 *  the same on every host and standard library. */
u64
nextRandom(u64 &state)
{
    u64 z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

template <typename T>
void
shuffle(std::vector<T> &v, u64 &state)
{
    for (size_t i = v.size(); i > 1; i--)
        std::swap(v[i - 1], v[nextRandom(state) % i]);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ------------------------------------------------------------------ spans

/**
 * Spans of the traced run: one per call into a layer, kept in memory
 * and written once when the run ends.
 */
class SpanLog
{
  public:
    /** Run @p fn, record it as span @p name of job @p job, and return
     *  its duration in seconds. */
    template <typename Fn>
    double
    time(const char *name, u64 job, Fn &&fn)
    {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        add(name, job, t0, secondsBetween(t0, t1));
        return secondsBetween(t0, t1);
    }

    /** Record a span measured elsewhere (e.g. a server-side span a
     *  service reply carries, anchored at the request's start). */
    void
    add(const char *name, u64 job, Clock::time_point start, double seconds)
    {
        spans.push_back({name, job, secondsBetween(origin, start), seconds});
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        JsonWriter w(out, /*pretty=*/false);
        w.beginObject();
        w.field("schema", "perfbench-spans-1");
        w.key("spans").beginArray();
        for (const Span &s : spans) {
            w.beginObject();
            w.field("name", s.name);
            w.field("job", s.job);
            w.field("start_us", s.startS * 1e6);
            w.field("dur_us", s.durS * 1e6);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        out << "\n";
    }

  private:
    struct Span
    {
        const char *name;
        u64 job;
        double startS;
        double durS;
    };

    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
};

/** Host time per layer, summed over the traced jobs. */
struct LayerTotals
{
    u64 jobs = 0;
    double assembleS = 0, setupS = 0, runS = 0, goldenS = 0, statsS = 0;
    u64 goldenInsts = 0;
    double lpsuRunS = 0;
    u64 lpsuCycles = 0, laneInsts = 0;
    /** GPP-only cells per configuration: (run seconds, cycles). */
    std::map<std::string, std::pair<double, u64>> gppRun;
};

// ------------------------------------------------------------------ cells

using Region = std::vector<u32>;
using Regions = std::map<std::string, Region>;

struct Cell
{
    const Kernel *kernel = nullptr;
    SysConfig config;
    ExecMode mode = ExecMode::Specialized;
    bool gpBinary = false;

    std::string
    label() const
    {
        return kernel->name + " " + config.name + " " +
               (gpBinary ? "GP" : execModeName(mode));
    }
};

/** What one in-process job leaves behind for the checks. */
struct JobResult
{
    bool passed = false;
    std::string error;
    u64 gppInsts = 0;
    u64 xlDynInsts = 0;
    std::string statsJson;
    Regions inputs;   ///< reference inputs, read right after set-up
    Regions outputs;  ///< the kernel's output regions after the run
};

Regions
readRegions(MainMemory &mem, const Program &prog,
            const std::vector<std::pair<std::string, unsigned>> &list)
{
    Regions out;
    for (const auto &[symbol, words] : list) {
        Region &r = out[symbol];
        const Addr base = prog.symbol(symbol);
        for (unsigned i = 0; i < words; i++)
            r.push_back(mem.readWord(base + 4 * i));
    }
    return out;
}

// ------------------------------------------------------------- references

/**
 * Independent plain-C++ references, at least one per dependence
 * class: each recomputes a kernel's result from its post-set-up input
 * image (or checks a property every correct result has) without the
 * simulator's golden model. An empty string means the output holds.
 */
struct Reference
{
    std::vector<std::pair<std::string, unsigned>> inputs;
    std::function<std::string(const Regions &in, const Regions &out)>
        check;
};

std::string
firstMismatch(const Region &got, const Region &want, const char *what)
{
    if (got.size() != want.size())
        return strf(what, ": ", got.size(), " words, want ", want.size());
    for (size_t i = 0; i < got.size(); i++) {
        if (got[i] != want[i])
            return strf(what, "[", i, "] = ", got[i], ", reference ",
                        want[i]);
    }
    return "";
}

float
asFloat(u32 bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
}

u32
floatBits(float f)
{
    u32 bits;
    std::memcpy(&bits, &f, sizeof bits);
    return bits;
}

/** Sorted-permutation check: @p got holds exactly @p in's values in
 *  non-decreasing order of key(). */
std::string
sortedPermutation(const Region &in, const Region &got,
                  const std::function<u32(u32)> &key)
{
    for (size_t i = 1; i < got.size(); i++) {
        if (key(got[i]) < key(got[i - 1]))
            return strf("out of order at ", i);
    }
    Region a = in, b = got;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b ? "" : "output is not a permutation of the input";
}

const std::map<std::string, Reference> &
references()
{
    static const std::map<std::string, Reference> refs = {
        // uc: C = A*B accumulated in k order from +0.0f, rounded to
        // float after every multiply and every add, as the kernel does.
        {"sgemm-uc",
         {{{"mata", 256}, {"matb", 256}},
          [](const Regions &in, const Regions &out) {
              const Region &a = in.at("mata"), &b = in.at("matb");
              Region c(256);
              for (unsigned i = 0; i < 16; i++) {
                  for (unsigned j = 0; j < 16; j++) {
                      float acc = 0.0f;
                      for (unsigned k = 0; k < 16; k++) {
                          const float p = asFloat(a[i * 16 + k]) *
                                          asFloat(b[k * 16 + j]);
                          acc = acc + p;
                      }
                      c[i * 16 + j] = floatBits(acc);
                  }
              }
              return firstMismatch(out.at("matc"), c, "matc");
          }}},
        // uc: overlapping occurrences of "abab" in each 128-byte stream.
        {"ssearch-uc",
         {{{"text", 512}, {"pat", 1}},
          [](const Regions &in, const Regions &out) {
              const Region &t = in.at("text");
              const u32 pat = in.at("pat")[0];
              const auto byte = [&](unsigned i) {
                  return (t[i / 4] >> (8 * (i % 4))) & 0xff;
              };
              Region want(16, 0);
              for (unsigned s = 0; s < 16; s++) {
                  for (unsigned p = 0; p + 4 <= 128; p++) {
                      bool hit = true;
                      for (unsigned q = 0; q < 4; q++)
                          hit &= byte(s * 128 + p + q) ==
                                 ((pat >> (8 * q)) & 0xff);
                      want[s] += hit ? 1 : 0;
                  }
              }
              return firstMismatch(out.at("matches"), want, "matches");
          }}},
        // or: per-row error diffusion with the error as the carried
        // register.
        {"dither-or",
         {{{"gray", 32 * 64}},
          [](const Regions &in, const Regions &out) {
              const Region &g = in.at("gray");
              Region bw(32 * 64);
              for (unsigned r = 0; r < 32; r++) {
                  i32 err = 0;
                  for (unsigned c = 0; c < 64; c++) {
                      const i32 v = static_cast<i32>(g[r * 64 + c]) + err;
                      const i32 o = v > 127 ? 1 : 0;
                      bw[r * 64 + c] = static_cast<u32>(o);
                      err = (v - o * 255) >> 1;
                  }
              }
              return firstMismatch(out.at("bw"), bw, "bw");
          }}},
        // om: dp[i] = min(dp[i-1] + ca[i], dp[i-2] + cb[i]).
        {"dynprog-om",
         {{{"dp", 2}, {"ca", 256}, {"cb", 256}},
          [](const Regions &in, const Regions &out) {
              const Region &ca = in.at("ca"), &cb = in.at("cb");
              std::vector<i32> dp(256);
              dp[0] = static_cast<i32>(in.at("dp")[0]);
              dp[1] = static_cast<i32>(in.at("dp")[1]);
              for (unsigned i = 2; i < 256; i++)
                  dp[i] = std::min(dp[i - 1] + static_cast<i32>(ca[i]),
                                   dp[i - 2] + static_cast<i32>(cb[i]));
              return firstMismatch(out.at("dp"),
                                   Region(dp.begin(), dp.end()), "dp");
          }}},
        // ua: one stable radix pass on the low 6 bits, plus its
        // histogram.
        {"rsort-ua",
         {{{"rin", 512}},
          [](const Regions &in, const Regions &out) {
              const auto digit = [](u32 v) { return v & 63; };
              const std::string why =
                  sortedPermutation(in.at("rin"), out.at("rout"), digit);
              if (!why.empty())
                  return "rout: " + why;
              Region want = in.at("rin");
              std::stable_sort(want.begin(), want.end(),
                               [&](u32 a, u32 b) {
                                   return digit(a) < digit(b);
                               });
              Region hist(64, 0);
              for (const u32 v : want)
                  hist[digit(v)]++;
              const std::string h =
                  firstMismatch(out.at("rhist"), hist, "rhist");
              return h.empty() ? firstMismatch(out.at("rout"), want, "rout")
                               : h;
          }}},
        // ua: a min-heap holding exactly the input values.
        {"hsort-ua",
         {{{"hin", 256}},
          [](const Regions &in, const Regions &out) {
              const Region &heap = out.at("heap");
              if (out.at("hn")[0] != 256)
                  return strf("hn = ", out.at("hn")[0]);
              for (size_t i = 1; i < heap.size(); i++) {
                  if (heap[(i - 1) / 2] > heap[i])
                      return strf("heap order violated at ", i);
              }
              Region a = in.at("hin"), b = heap;
              std::sort(a.begin(), a.end());
              std::sort(b.begin(), b.end());
              return a == b ? std::string()
                            : std::string("heap is not a permutation of "
                                          "the input");
          }}},
        // db: the in-place sort equals the sorted input.
        {"qsort-uc-db",
         {{{"qdata", 256}},
          [](const Regions &in, const Regions &out) {
              const std::string why = sortedPermutation(
                  in.at("qdata"), out.at("qdata"),
                  [](u32 v) { return v; });
              return why.empty() ? why : "qdata: " + why;
          }}},
        // db: breadth-first distances from node 0 over the CSR graph.
        {"bfs-uc-db",
         {{{"adjoff", 65}, {"adjlist", 192}},
          [](const Regions &in, const Regions &out) {
              const Region &off = in.at("adjoff"), &adj = in.at("adjlist");
              Region dist(64, 0x0fffffff);
              std::vector<u32> frontier = {0};
              dist[0] = 0;
              for (size_t h = 0; h < frontier.size(); h++) {
                  const u32 u = frontier[h];
                  for (u32 e = off[u]; e < off[u + 1]; e++) {
                      if (dist[adj[e]] == 0x0fffffff) {
                          dist[adj[e]] = dist[u] + 1;
                          frontier.push_back(adj[e]);
                      }
                  }
              }
              return firstMismatch(out.at("dist"), dist, "dist");
          }}},
    };
    return refs;
}

const Reference *
referenceFor(const Kernel &kernel)
{
    const auto it = references().find(kernel.name);
    return it == references().end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------- runners

/**
 * One Table II cell the way the sweep harness runs it: runKernel
 * (assemble, set up, simulate, serial golden check) plus the cell's
 * "xloops-stats-1" document. The kernel is copied with its set-up and
 * check wrapped, only to read the reference inputs and the output
 * regions out of the simulated memory.
 */
JobResult
runCell(const Cell &cell)
{
    JobResult r;
    const Kernel &orig = *cell.kernel;
    const Reference *ref = referenceFor(orig);
    Kernel k = orig;
    bool haveInputs = false;
    k.setup = [&](MainMemory &mem, const Program &prog) {
        if (orig.setup)
            orig.setup(mem, prog);
        if (ref && !haveInputs)
            r.inputs = readRegions(mem, prog, ref->inputs);
        haveInputs = true;
    };
    k.check = [&](MainMemory &mem, const Program &prog, std::string &why) {
        r.outputs = readRegions(mem, prog, orig.outputs);
        return !orig.check || orig.check(mem, prog, why);
    };
    LoopProfiler profiler;
    RunHooks hooks;
    hooks.profiler = &profiler;
    const KernelRun run =
        runKernel(k, cell.config, cell.mode, cell.gpBinary, hooks);
    r.passed = run.passed;
    r.error = run.error;
    r.gppInsts = run.result.gppInsts;
    r.xlDynInsts = run.xlDynInsts;
    if (run.passed) {
        std::ostringstream ss;
        writeStatsJson(ss, cell.config.name, execModeName(cell.mode),
                       orig.name, run.result, profiler, nullptr);
        r.statsJson = ss.str();
    }
    return r;
}

/**
 * The same work as runCell, step by step through each layer's public
 * entry point, with a span around every call: the traced run's source
 * of per-layer host time. Produces an identical JobResult.
 */
JobResult
runCellTraced(const Cell &cell, u64 job, SpanLog &spans, LayerTotals &lt)
{
    JobResult r;
    const Kernel &kernel = *cell.kernel;
    const Reference *ref = referenceFor(kernel);
    const std::string src =
        cell.gpBinary ? serializeToGpIsa(kernel.source) : kernel.source;

    Program prog;
    lt.assembleS += spans.time("asm.assemble", job,
                               [&] { prog = assemble(src); });
    std::optional<XloopsSystem> sys;
    spans.time("system.build", job, [&] {
        sys.emplace(cell.config);
        sys->loadProgram(prog);
    });
    lt.setupS += spans.time("kernels.setup", job,
                            [&] { kernel.setup(sys->memory(), prog); });
    if (ref)
        r.inputs = readRegions(sys->memory(), prog, ref->inputs);
    LoopProfiler profiler;
    sys->setObserver(nullptr, &profiler);
    SysResult res;
    const double runS = spans.time("system.run", job, [&] {
        res = sys->run(prog, cell.mode, 500'000'000, RunOptions{});
    });
    lt.runS += runS;
    if (cell.config.hasLpsu) {
        lt.lpsuRunS += runS;
        lt.lpsuCycles += res.cycles;
        lt.laneInsts += res.laneInsts;
    } else {
        auto &[s, cycles] = lt.gppRun[cell.config.name];
        s += runS;
        cycles += res.cycles;
    }

    MainMemory golden;
    lt.setupS += spans.time("kernels.setup", job, [&] {
        prog.loadInto(golden);
        kernel.setup(golden, prog);
    });
    lt.goldenS += spans.time("functional.golden", job, [&] {
        ThreadedExecutor exec(golden);
        r.xlDynInsts = exec.run(prog).dynInsts;
    });
    lt.goldenInsts += r.xlDynInsts;

    spans.time("kernels.check", job, [&] {
        r.passed = true;
        for (const auto &[symbol, words] : kernel.outputs) {
            const Addr base = prog.symbol(symbol);
            for (unsigned i = 0; i < words && r.passed; i++) {
                if (sys->memory().readWord(base + 4 * i) !=
                    golden.readWord(base + 4 * i)) {
                    r.passed = false;
                    r.error = strf(kernel.name, ": ", symbol, "[", i,
                                   "] differs from the serial run");
                }
            }
        }
        std::string why;
        if (r.passed && kernel.check &&
            !kernel.check(sys->memory(), prog, why)) {
            r.passed = false;
            r.error = kernel.name + ": " + why;
        }
        r.outputs = readRegions(sys->memory(), prog, kernel.outputs);
    });
    r.gppInsts = res.gppInsts;
    if (r.passed) {
        lt.statsS += spans.time("report.stats_json", job, [&] {
            std::ostringstream ss;
            writeStatsJson(ss, cell.config.name, execModeName(cell.mode),
                           kernel.name, res, profiler, nullptr);
            r.statsJson = ss.str();
        });
    }
    lt.jobs++;
    return r;
}

// ----------------------------------------------------------------- checks

/**
 * Every correctness check of the benchmark. check() returns the first
 * failure of a job ("" when it passed); the caller counts a non-empty
 * answer as one failed operation.
 */
class Checker
{
  public:
    /** Serial reference output image of every kernel in @p cells, from
     *  the functional run of its GP-ISA binary. */
    void
    prepare(const std::vector<Cell> &cells)
    {
        for (const Cell &cell : cells) {
            const Kernel &k = *cell.kernel;
            if (expected.count(k.name))
                continue;
            const Program prog = assemble(serializeToGpIsa(k.source));
            MainMemory mem;
            prog.loadInto(mem);
            k.setup(mem, prog);
            ThreadedExecutor exec(mem);
            exec.run(prog);
            expected[k.name] = readRegions(mem, prog, k.outputs);
        }
    }

    std::string
    check(const Cell &cell, const JobResult &r)
    {
        if (!r.passed)
            return r.error;
        const Kernel &k = *cell.kernel;
        // Identical output regions for every cell of a kernel: T, GP,
        // S and A on every configuration, against the serial run.
        if (k.deterministic) {
            for (const auto &[symbol, want] : expected.at(k.name)) {
                const auto it = r.outputs.find(symbol);
                const std::string why = firstMismatch(
                    it == r.outputs.end() ? Region{} : it->second, want,
                    symbol.c_str());
                if (!why.empty())
                    return "serial output mismatch: " + why;
            }
        }
        if (const Reference *ref = referenceFor(k)) {
            const std::string why = ref->check(r.inputs, r.outputs);
            if (!why.empty())
                return "reference mismatch: " + why;
        }
        // Traditional mode commits exactly the serial instruction
        // stream.
        if (cell.mode == ExecMode::Traditional && r.gppInsts != r.xlDynInsts)
            return strf("traditional run committed ", r.gppInsts,
                        " instructions, serial count ", r.xlDynInsts);
        // Every repetition of a cell simulates identically.
        const auto [it, fresh] = firstStats.emplace(cell.label(), r.statsJson);
        if (!fresh && it->second != r.statsJson)
            return "stats differ from the cell's first repetition";
        return "";
    }

    /** The in-process stats document of @p cell (after one check). */
    const std::string &
    statsOf(const Cell &cell) const
    {
        return firstStats.at(cell.label());
    }

    /** Digest of the simulated statistics of @p cells, for reports. */
    u64
    digest(const std::vector<Cell> &cells) const
    {
        u64 h = 0xcbf29ce484222325ull;
        for (const Cell &cell : cells) {
            const auto it = firstStats.find(cell.label());
            h = fnv1a(h, it == firstStats.end() ? "-" : it->second);
        }
        return h;
    }

  private:
    std::map<std::string, Regions> expected;
    std::map<std::string, std::string> firstStats;
};

/**
 * Attempted/failed tally with the first few failure messages. A
 * failure is "known" when it is the effect of a fault already named in
 * README.md (the service's cache key, see svc-socket) and nothing else;
 * any other failure makes the run incorrect.
 */
struct Tally
{
    u64 attempted = 0;
    u64 failed = 0;
    u64 unexpected = 0;
    std::vector<std::string> messages;

    /** Record one operation; returns whether it passed. */
    bool
    record(const std::string &what, const std::string &why,
           bool known = false)
    {
        attempted++;
        if (why.empty())
            return true;
        failed++;
        unexpected += known ? 0 : 1;
        if (messages.size() < 8)
            messages.push_back(what + ": " + why +
                               (known ? " (known fault)" : ""));
        return false;
    }

    bool correct() const { return unexpected == 0; }
};

/** Peak resident set (VmHWM) of process @p pid, in MB. VmHWM, not
 *  getrusage: ru_maxrss survives exec, so it would report the parent
 *  that forked this process if that parent was larger. */
double
peakRssMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

// -------------------------------------------------------------- processes

struct ProcResult
{
    int status = -1;
    double wallS = 0;
    double maxRssMb = 0;
};

pid_t
spawn(const std::vector<std::string> &argv, const std::string &logPath)
{
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, logPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        fatal(strf("cannot start ", argv[0], ": ", std::strerror(rc)));
    return pid;
}

/** Run a program to completion; its output goes to @p logPath. */
ProcResult
runProcess(const std::vector<std::string> &argv, const std::string &logPath)
{
    ProcResult r;
    const auto t0 = Clock::now();
    const pid_t pid = spawn(argv, logPath);
    int status = 0;
    struct rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    r.wallS = secondsBetween(t0, Clock::now());
    r.status = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    r.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return r;
}

/**
 * Runs programs from a small process forked before the benchmark does
 * any work of its own. A child's ru_maxrss is at least the peak RSS of
 * the address space it exec'd from, and posix_spawn execs from its
 * parent's, so a program spawned by the benchmark itself would report
 * the benchmark's own peak whenever that is the larger. Spawned from
 * here, the floor is the launcher's peak instead (floorMb()), which is
 * the benchmark's footprint at start-up.
 */
class Launcher
{
  public:
    Launcher()
    {
        int req[2], resp[2];
        if (pipe(req) != 0 || pipe(resp) != 0)
            fatal(strf("pipe: ", std::strerror(errno)));
        std::fflush(nullptr);
        pid = fork();
        if (pid < 0)
            fatal(strf("fork: ", std::strerror(errno)));
        if (pid == 0) {
            close(req[1]);
            close(resp[0]);
            serve(req[0], resp[1]);
            _exit(0);
        }
        close(req[0]);
        close(resp[1]);
        toChild = req[1];
        fromChild = resp[0];
    }

    /** Closing the request pipe ends the launcher. */
    ~Launcher()
    {
        close(toChild);
        close(fromChild);
        while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
        }
    }
    Launcher(const Launcher &) = delete;
    Launcher &operator=(const Launcher &) = delete;

    /** runProcess(argv, logPath), in the launcher. */
    ProcResult
    run(std::vector<std::string> argv, const std::string &logPath)
    {
        argv.push_back(logPath);
        std::string msg;
        for (const std::string &a : argv)
            msg += a + '\0';
        const u32 len = static_cast<u32>(msg.size());
        ProcResult r;
        if (!writeAll(toChild, &len, sizeof len) ||
            !writeAll(toChild, msg.data(), msg.size()) ||
            !readAll(fromChild, &r, sizeof r))
            fatal("the process launcher has gone");
        if (r.status < 0)
            fatal("cannot start " + argv[0]);
        return r;
    }

    double floorMb() const { return peakRssMb(strf(pid)); }

  private:
    static bool
    readAll(int fd, void *buf, size_t n)
    {
        char *p = static_cast<char *>(buf);
        while (n > 0) {
            const ssize_t got = read(fd, p, n);
            if (got < 0 && errno == EINTR)
                continue;
            if (got <= 0)
                return false;
            p += got;
            n -= static_cast<size_t>(got);
        }
        return true;
    }

    static bool
    writeAll(int fd, const void *buf, size_t n)
    {
        const char *p = static_cast<const char *>(buf);
        while (n > 0) {
            const ssize_t put = write(fd, p, n);
            if (put < 0 && errno == EINTR)
                continue;
            if (put <= 0)
                return false;
            p += put;
            n -= static_cast<size_t>(put);
        }
        return true;
    }

    /** The launcher's loop: one NUL-separated argv plus log path per
     *  request, one ProcResult per reply, until the pipe closes. */
    static void
    serve(int in, int out)
    {
        u32 len = 0;
        while (readAll(in, &len, sizeof len)) {
            std::string msg(len, '\0');
            if (!readAll(in, msg.data(), len))
                return;
            std::vector<std::string> argv;
            for (size_t at = 0; at < msg.size();) {
                const size_t end = msg.find('\0', at);
                argv.push_back(msg.substr(at, end - at));
                at = end + 1;
            }
            const std::string log = argv.back();
            argv.pop_back();
            ProcResult r;
            try {
                r = runProcess(argv, log);
            } catch (const std::exception &) {
                r.status = -1;
            }
            if (!writeAll(out, &r, sizeof r))
                return;
        }
    }

    pid_t pid = -1;
    int toChild = -1, fromChild = -1;
};

/** An xloopsd child in its own directory, stopped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &binDir, const std::string &dir)
        : socketPath(dir + "/d.sock")
    {
        std::filesystem::create_directories(dir);
        const auto t0 = Clock::now();
        pid = spawn({binDir + "/xloopsd", "--socket", socketPath,
                     "--workers", "2", "--journal", dir + "/journal",
                     "--cache-index", dir + "/cache.idx", "--artifact-dir",
                     dir, "--cache-entries", "64"},
                    dir + "/xloopsd.log");
        Request health;
        health.op = "health";
        for (;;) {
            try {
                if (jsonParse(request(health)).at("status").asString() ==
                    "ok")
                    break;
            } catch (const FatalError &) {
                // Not listening yet.
            }
            if (secondsBetween(t0, Clock::now()) > 10.0 || exited()) {
                stop();
                fatal("xloopsd did not become healthy; see " + dir +
                      "/xloopsd.log");
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        startS = secondsBetween(t0, Clock::now());
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** One request on its own connection. */
    std::string
    request(const Request &req) const
    {
        ServiceClient client(socketPath, 0);
        return client.request(encodeRequest(req));
    }

    /** The daemon's counters and gauges from one "metrics" scrape. */
    std::map<std::string, u64>
    scrape() const
    {
        Request req;
        req.op = "metrics";
        const JsonValue reply = jsonParse(request(req));
        const JsonValue doc = jsonParse(reply.at("metrics").asString());
        std::map<std::string, u64> out;
        for (const char *table : {"counters", "gauges"}) {
            for (const auto &[name, v] : doc.at(table).members())
                out[name] = v.asU64();
        }
        return out;
    }

    double peakRssMb() const { return ::peakRssMb(strf(pid)); }

    double startS = 0;  ///< launch until a health probe answered

  private:
    bool
    exited()
    {
        int status = 0;
        if (pid > 0 && waitpid(pid, &status, WNOHANG) == pid)
            pid = -1;
        return pid < 0;
    }

    /** SIGTERM drains the daemon; SIGKILL only if it hangs. */
    void
    stop()
    {
        if (pid <= 0)
            return;
        kill(pid, SIGTERM);
        const auto t0 = Clock::now();
        while (!exited()) {
            if (secondsBetween(t0, Clock::now()) > 10.0) {
                kill(pid, SIGKILL);
                waitpid(pid, nullptr, 0);
                pid = -1;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    std::string socketPath;
    pid_t pid = -1;
};

// -------------------------------------------------------------- workloads

struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string buildDir = ".bench_build";
    std::string commit = "unknown";
    bool selfTest = false;
};

std::vector<Cell>
cellsOf(const std::string &workload)
{
    std::vector<Cell> cells;
    for (const std::string &name : tableIIKernelNames()) {
        const Kernel *k = &kernelByName(name);
        if (workload == "table2-lpsu") {
            for (const SysConfig &cfg :
                 {configs::ioX(), configs::ooo2X(), configs::ooo4X()}) {
                cells.push_back({k, cfg, ExecMode::Specialized, false});
                cells.push_back({k, cfg, ExecMode::Adaptive, false});
            }
        } else if (workload == "table2-gpp") {
            for (const SysConfig &cfg :
                 {configs::io(), configs::ooo2(), configs::ooo4()}) {
                cells.push_back({k, cfg, ExecMode::Traditional, false});
                cells.push_back({k, cfg, ExecMode::Traditional, true});
            }
        } else {
            cells.push_back({k, configs::ioX(), ExecMode::Specialized,
                             false});
        }
    }
    return cells;
}

/** One measured phase: whole rounds of the workload's jobs. */
struct Phase
{
    struct Round
    {
        double seconds;
        size_t endJob;  ///< the round's jobs end here in jobMs
    };
    std::vector<Round> rounds;
    std::vector<double> jobMs;
    std::vector<bool> hit;  ///< per job: a cache hit (svc-socket)

    void
    add(double ms, bool isHit = false)
    {
        jobMs.push_back(ms);
        hit.push_back(isHit);
    }

    /** Times of the jobs that were (or were not) cache hits. */
    std::vector<double>
    jobsWhere(bool isHit) const
    {
        std::vector<double> out;
        for (size_t i = 0; i < jobMs.size(); i++) {
            if (hit[i] == isHit)
                out.push_back(jobMs[i]);
        }
        return out;
    }

    double
    seconds() const
    {
        double s = 0;
        for (const Round &r : rounds)
            s += r.seconds;
        return s;
    }

    /**
     * The faster half of the rounds of each chronological half of the
     * run (at least one round). The metrics are taken over these: on a
     * shared host, other load slows whole stretches of seconds, and
     * the rounds it hit fall in the slower half. Taking the faster
     * half of the first and of the second half of the run, rather than
     * of the whole, keeps the late rounds in the sample, so a slowdown
     * that grows with the jobs served still shows.
     */
    Phase
    fasterHalf() const
    {
        std::vector<size_t> idx;
        const size_t mid = rounds.size() / 2;
        for (const auto &[lo, hi] :
             {std::pair<size_t, size_t>{0, mid}, {mid, rounds.size()}}) {
            std::vector<size_t> part;
            for (size_t i = lo; i < hi; i++)
                part.push_back(i);
            std::sort(part.begin(), part.end(), [&](size_t a, size_t b) {
                return rounds[a].seconds < rounds[b].seconds;
            });
            idx.insert(idx.end(), part.begin(),
                       part.begin() + (part.size() + 1) / 2);
        }
        std::sort(idx.begin(), idx.end());
        Phase out;
        for (const size_t i : idx) {
            const size_t begin = i ? rounds[i - 1].endJob : 0;
            out.jobMs.insert(out.jobMs.end(), jobMs.begin() + begin,
                             jobMs.begin() + rounds[i].endJob);
            out.hit.insert(out.hit.end(), hit.begin() + begin,
                           hit.begin() + rounds[i].endJob);
            out.rounds.push_back({rounds[i].seconds, out.jobMs.size()});
        }
        return out;
    }
};

/** Named metrics with units, printed as the result's "metrics". */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        values[name] = {value, unit};
    }

    std::string
    json() const
    {
        std::ostringstream ss;
        JsonWriter w(ss, /*pretty=*/false);
        w.beginObject();
        for (const auto &[name, vu] : values) {
            char num[40];
            std::snprintf(num, sizeof num, "%.17g", vu.first);
            w.key(name).beginObject();
            w.key("value").rawNumber(num);
            w.field("unit", vu.second);
            w.endObject();
        }
        w.endObject();
        return ss.str();
    }

  private:
    std::map<std::string, std::pair<double, std::string>> values;
};

/** Per-layer metrics; every one is reported on every workload, and a
 *  layer the workload never enters reads 0. */
const std::vector<std::pair<const char *, const char *>> perLayerUnits = {
    {"xsim.overhead_ms_p50", "ms"},
    {"xsim.wall_over_inprocess", "ratio"},
    {"asm.assemble_ms_per_job", "ms"},
    {"kernels.setup_ms_per_job", "ms"},
    {"functional.golden_minsts_per_s", "Minsts/s"},
    {"system.run_ms_per_job", "ms"},
    {"lpsu.run_mcycles_per_s", "Mcycles/s"},
    {"lpsu.lane_minsts_per_s", "Minsts/s"},
    {"gpp.io.run_mcycles_per_s", "Mcycles/s"},
    {"gpp.ooo2.run_mcycles_per_s", "Mcycles/s"},
    {"gpp.ooo4.run_mcycles_per_s", "Mcycles/s"},
    {"report.stats_json_ms_per_job", "ms"},
    {"service.queue_wait_us_p50", "us"},
    {"service.cache_lookup_us_p50", "us"},
    {"service.sim_ms_p50", "ms"},
    {"service.unattributed_ms_p50", "ms"},
    {"service.wire_bytes_per_job", "B"},
    {"service.journal_records_per_job", "count"},
    {"service.cache_hit_ratio", "fraction"},
    {"trace.overhead_pct", "%"},
};

/** Set-ups per run; setup_s is their median. */
constexpr int setupReps = 9;

/** svc-socket reads the daemon's peak RSS after this many rounds, not
 *  at the end: the daemon keeps every job's record, so its footprint
 *  grows with the jobs served and a faster daemon would otherwise
 *  read as a bigger one. */
constexpr u64 serviceRssRounds = 8;

/** The benchmark: one workload, its checks and its metrics. */
class Bench
{
  public:
    explicit Bench(const Options &o)
        : opt(o), cells(cellsOf(o.workload)),
          order(o.seed * 0x2545f4914f6cdd1dull + 0x5eed)
    {
        for (const auto &[name, unit] : perLayerUnits)
            perLayer.set(name, 0.0, unit);
    }

    /**
     * Confine this process, and every process it starts, to the CPU it
     * runs on. Each svc-socket request hands off between threads four
     * times (client, connection, worker, connection, client). On a
     * virtual machine a hand-off to another, idle CPU waits until the
     * host runs that CPU, which costs more than the job and varies
     * with other tenants' load: over the same minutes, svc-socket's
     * jobs_per_s ranged 91 to 182 in unconfined runs and 83 to 93 in
     * confined ones. On one CPU the two clients and two workers still
     * queue and interleave, and the figures are the program's own
     * work. The other workloads run one thread at a time; confined,
     * they are not migrated either.
     */
    static void
    pinToOneCpu()
    {
        const int cpu = sched_getcpu();
        if (cpu < 0)
            fatal(strf("sched_getcpu: ", std::strerror(errno)));
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0)
            fatal(strf("sched_setaffinity: ", std::strerror(errno)));
        std::printf("running on cpu %d, with every process started\n", cpu);
    }

    void
    run()
    {
        pinToOneCpu();
        std::filesystem::remove_all(runDir());
        std::filesystem::create_directories(runDir());
        if (opt.workload == "xsim-cli")
            runXsim();
        else if (opt.workload == "svc-socket")
            runService();
        else
            runTable();
        if (opt.trace)
            spans.write(strf(opt.buildDir, "/spans-", opt.workload, "-",
                             opt.seed, ".json"));
        std::filesystem::remove_all(runDir());
    }

    void
    report() const
    {
        std::printf("sim_digest %016llx (simulated statistics of all %zu "
                    "cells; equal across commits when simulated "
                    "behaviour is unchanged)\n",
                    static_cast<unsigned long long>(checker.digest(cells)),
                    cells.size());
        for (const std::string &m : tally.messages)
            std::printf("FAILED %s\n", m.c_str());
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": %s}\n",
                    tally.correct() ? "true" : "false",
                    static_cast<unsigned long long>(tally.attempted),
                    static_cast<unsigned long long>(tally.failed),
                    (opt.trace ? perLayer : endToEnd).json().c_str());
    }

  private:
    std::string runDir() const { return opt.buildDir + "/run"; }

    /** Set per-layer metric @p name, with its unit from perLayerUnits. */
    void
    layer(const std::string &name, double value)
    {
        for (const auto &[n, unit] : perLayerUnits) {
            if (name == n) {
                perLayer.set(name, value, unit);
                return;
            }
        }
        panic("unknown per-layer metric " + name);
    }

    /** One in-process job: the sweep path, or layer by layer with
     *  spans when @p traced. An exception is a failed job. */
    JobResult
    inProcess(const Cell &cell, bool traced)
    {
        try {
            if (traced)
                return runCellTraced(cell, nextJob++, spans, layers);
            return runCell(cell);
        } catch (const std::exception &e) {
            JobResult r;
            r.error = e.what();
            return r;
        }
    }

    /** The cells' indices in this round's order (from the seed). */
    std::vector<size_t>
    permutedOrder()
    {
        std::vector<size_t> idx(cells.size());
        for (size_t i = 0; i < idx.size(); i++)
            idx[i] = i;
        shuffle(idx, order);
        return idx;
    }

    /**
     * Run whole rounds, runRound(phase, traced), until opt.seconds
     * have passed. Untraced, every round is measured for the
     * end-to-end metrics. Traced, rounds alternate untraced and
     * traced, so host speed drifts fall on both alike; the traced
     * rounds give the per-layer metrics and their median job time
     * against the untraced rounds' is the tracing overhead.
     */
    template <typename Fn>
    Phase
    measure(Fn &&runRound)
    {
        Phase plain, traced;
        const auto t0 = Clock::now();
        do {
            const bool tr =
                opt.trace && plain.rounds.size() > traced.rounds.size();
            Phase &ph = tr ? traced : plain;
            const auto r0 = Clock::now();
            runRound(ph, tr);
            ph.rounds.push_back(
                {secondsBetween(r0, Clock::now()), ph.jobMs.size()});
        } while (secondsBetween(t0, Clock::now()) < opt.seconds);
        if (!opt.trace)
            return plain;
        const double a = median(plain.fasterHalf().jobMs);
        const double b = median(traced.fasterHalf().jobMs);
        layer("trace.overhead_pct", (b / a - 1.0) * 100.0);
        return traced;
    }

    void
    endToEndFrom(const Phase &p, double setupS, double peakRssMb)
    {
        const Phase fast = p.fasterHalf();
        endToEnd.set("setup_s", setupS, "s");
        endToEnd.set("jobs_per_s",
                     static_cast<double>(fast.jobMs.size()) / fast.seconds(),
                     "1/s");
        // svc-socket: the mean of the hit and the miss medians. The
        // pooled median of its 1:1 mix lies in the gap between the two
        // clusters, where the slowest hits and the fastest misses alone
        // decide it; under host load it doubled while throughput fell
        // by a third.
        endToEnd.set("job_ms_p50",
                     opt.workload == "svc-socket"
                         ? 0.5 * (median(fast.jobsWhere(true)) +
                                  median(fast.jobsWhere(false)))
                         : median(fast.jobMs),
                     "ms");
        endToEnd.set("peak_rss_mb", peakRssMb, "MB");
        std::printf("measured %s: %zu rounds, %zu jobs in %.3f s, %.2f "
                    "jobs/s; job_ms p50 %.3f, p90 %.3f (n=%zu; all rounds, "
                    "for reference)\n",
                    opt.trace ? "traced rounds" : "run", p.rounds.size(),
                    p.jobMs.size(), p.seconds(),
                    static_cast<double>(p.jobMs.size()) / p.seconds(),
                    median(p.jobMs), percentile(p.jobMs, 90),
                    p.jobMs.size());
        if (opt.workload == "svc-socket")
            std::printf("job_ms p50 of hits %.3f, of misses %.3f, pooled "
                        "%.3f (selected rounds; for reference)\n",
                        median(fast.jobsWhere(true)),
                        median(fast.jobsWhere(false)), median(fast.jobMs));
    }

    /** Per-layer metrics of the in-process layers, from the traced
     *  jobs' spans. */
    void
    inProcessLayers()
    {
        const LayerTotals &lt = layers;
        if (lt.jobs == 0)
            return;
        const double jobs = static_cast<double>(lt.jobs);
        const auto rate = [](u64 n, double s) {
            return s > 0 ? static_cast<double>(n) / s / 1e6 : 0.0;
        };
        layer("asm.assemble_ms_per_job", lt.assembleS * 1e3 / jobs);
        layer("kernels.setup_ms_per_job", lt.setupS * 1e3 / jobs);
        layer("functional.golden_minsts_per_s",
              rate(lt.goldenInsts, lt.goldenS));
        layer("system.run_ms_per_job", lt.runS * 1e3 / jobs);
        layer("report.stats_json_ms_per_job", lt.statsS * 1e3 / jobs);
        layer("lpsu.run_mcycles_per_s", rate(lt.lpsuCycles, lt.lpsuRunS));
        layer("lpsu.lane_minsts_per_s", rate(lt.laneInsts, lt.lpsuRunS));
        const std::pair<const char *, const char *> gpps[] = {
            {"io", "gpp.io"}, {"ooo/2", "gpp.ooo2"}, {"ooo/4", "gpp.ooo4"}};
        for (const auto &[cfg, key] : gpps) {
            const auto it = lt.gppRun.find(cfg);
            if (it != lt.gppRun.end())
                layer(strf(key, ".run_mcycles_per_s"),
                      rate(it->second.second, it->second.first));
        }
    }

    // ------------------------------------------- table2-lpsu, table2-gpp

    void
    runTable()
    {
        // Set-up: the cell list with its configurations, every program
        // of the workload assembled, and the serial output image of
        // every kernel.
        std::vector<double> setups;
        for (int rep = 0; rep < setupReps; rep++) {
            const auto t0 = Clock::now();
            Checker fresh;
            const std::vector<Cell> all = cellsOf(opt.workload);
            for (const Cell &cell : all)
                assemble(cell.gpBinary
                             ? serializeToGpIsa(cell.kernel->source)
                             : cell.kernel->source);
            fresh.prepare(all);
            setups.push_back(secondsBetween(t0, Clock::now()));
            checker = std::move(fresh);
        }
        const Phase p = measure([this](Phase &ph, bool traced) {
            for (const size_t i : permutedOrder()) {
                const Cell &cell = cells[i];
                const auto t0 = Clock::now();
                const JobResult r = inProcess(cell, traced);
                const double ms = secondsBetween(t0, Clock::now()) * 1e3;
                if (tally.record(cell.label(), checker.check(cell, r)))
                    ph.add(ms);
            }
        });
        endToEndFrom(p, median(setups), peakRssMb("self"));
        inProcessLayers();
    }

    /** The in-process document of every cell, checked like a job; a
     *  cell whose reference failed fails every job that compares
     *  against it. */
    void
    inProcessReferences()
    {
        checker.prepare(cells);
        for (const Cell &cell : cells) {
            const std::string why =
                checker.check(cell, inProcess(cell, opt.trace));
            if (!why.empty())
                refError[cell.label()] = "in-process reference: " + why;
        }
    }

    std::string
    compareToReference(const Cell &cell, const std::string &doc,
                       const char *what)
    {
        const auto it = refError.find(cell.label());
        if (it != refError.end())
            return it->second;
        return doc == checker.statsOf(cell)
                   ? ""
                   : strf(what, " stats document differs from the "
                                "in-process writeStatsJson");
    }

    // --------------------------------------------------------- xsim-cli

    ProcResult
    xsim(const Cell &cell, std::string &why)
    {
        const std::string stats = runDir() + "/xsim-stats.json";
        const std::string log = runDir() + "/xsim.log";
        std::filesystem::remove(stats);
        const ProcResult pr = launcher->run(
            {opt.buildDir + "/xsim", "-k", cell.kernel->name, "-c",
             cell.config.name, "-m", execModeName(cell.mode),
             "--stats-json", stats},
            log);
        if (pr.status != 0)
            why = strf("xsim exited with ", pr.status);
        else if (readFile(log).find("VALIDATED") == std::string::npos)
            why = "xsim did not report VALIDATED";
        else
            why = compareToReference(cell, readFile(stats), "xsim");
        return pr;
    }

    void
    runXsim()
    {
        launcher = std::make_unique<Launcher>();
        inProcessReferences();
        // Set-up: the first invocations of xsim (the first one cold).
        std::vector<double> setups;
        for (int rep = 0; rep < setupReps; rep++) {
            std::string why;
            setups.push_back(xsim(cells[0], why).wallS);
        }
        double peakRss = 0;
        std::vector<double> overheadMs, xsimMs, inprocMs;
        const Phase p = measure([&](Phase &ph, bool traced) {
            for (const size_t i : permutedOrder()) {
                const Cell &cell = cells[i];
                std::string why;
                const u64 job = nextJob++;
                const auto t0 = Clock::now();
                const ProcResult pr = xsim(cell, why);
                peakRss = std::max(peakRss, pr.maxRssMb);
                if (tally.record(cell.label(), why))
                    ph.add(pr.wallS * 1e3);
                if (!traced)
                    continue;
                // The same cell in process, layer by layer: what the
                // process costs beyond the simulation itself.
                spans.add("xsim.process", job, t0, pr.wallS);
                const auto t1 = Clock::now();
                inProcess(cell, true);
                const double inS = secondsBetween(t1, Clock::now());
                xsimMs.push_back(pr.wallS * 1e3);
                inprocMs.push_back(inS * 1e3);
                overheadMs.push_back((pr.wallS - inS) * 1e3);
            }
        });
        endToEndFrom(p, median(setups), peakRss);
        std::printf("xsim peak_rss_mb floor: the launcher's own peak, "
                    "%.2f MB\n",
                    launcher->floorMb());
        launcher.reset();
        inProcessLayers();
        if (opt.trace) {
            layer("xsim.overhead_ms_p50", median(overheadMs));
            layer("xsim.wall_over_inprocess",
                  median(xsimMs) / median(inprocMs));
        }
    }

    // ------------------------------------------------------- svc-socket

    struct SvcOp
    {
        size_t cell;
        bool miss;
    };

    /** Server-side spans and the daemon's counters over a phase. */
    struct SvcPhase
    {
        std::vector<double> queueWaitUs, cacheLookupUs, simMs,
            unattributedMs;
        double hits = 0, misses = 0, wireBytes = 0, journalRecords = 0;
    };

    /**
     * One round: every cell once as a cache miss and once resubmitted
     * as a hit (the mix bench/chaos.cc and tests/service_smoke.sh
     * use), in a seed-shuffled order, driven closed-loop by two client
     * threads. A hit is only sent once its cell's miss has answered,
     * and a cell's first submission waits for that of every earlier
     * cell with the same program image, so what the cache sees is the
     * same in every round and every run. The round's valve value (far
     * above any kernel's instruction count) keys the cache afresh, so
     * every round misses once per cell. The daemon's counters are
     * scraped around the round and checked as one more operation.
     */
    void
    serviceRound(Daemon &daemon, Phase &ph, SvcPhase &sp, bool traced)
    {
        const std::map<std::string, u64> before = daemon.scrape();
        std::vector<SvcOp> ops;
        for (size_t c = 0; c < cells.size(); c++) {
            ops.push_back({c, false});
            ops.push_back({c, false});
        }
        shuffle(ops, order);
        std::vector<bool> seen(cells.size(), false);
        for (SvcOp &op : ops) {
            op.miss = !seen[op.cell];
            seen[op.cell] = true;
        }
        const u64 valve = 500'000'000 + ++serviceRounds;

        std::mutex m;
        std::condition_variable cv;
        std::vector<bool> taken(ops.size(), false);
        std::vector<bool> missDone(cells.size(), false);
        std::vector<std::string> missStats(cells.size());
        size_t remaining = ops.size();
        u64 hits = 0, misses = 0;

        const auto client = [&] {
            std::unique_lock<std::mutex> lock(m);
            for (;;) {
                size_t pick = ops.size();
                cv.wait(lock, [&] {
                    if (remaining == 0)
                        return true;
                    for (size_t i = 0; i < ops.size(); i++) {
                        const size_t c = ops[i].cell;
                        const size_t dep = ops[i].miss
                                               ? sameProgramBefore[c]
                                               : c;
                        if (!taken[i] &&
                            (dep == cells.size() || missDone[dep])) {
                            pick = i;
                            return true;
                        }
                    }
                    return false;
                });
                if (pick == ops.size())
                    return;
                taken[pick] = true;
                remaining--;
                const SvcOp op = ops[pick];
                const Cell &cell = cells[op.cell];
                const u64 job = nextJob++;
                lock.unlock();

                Request req;
                req.op = "submit";
                req.job.kernel = cell.kernel->name;
                req.job.config = cell.config.name;
                req.job.mode = execModeName(cell.mode);
                req.job.maxInsts = valve;
                std::string why, stats;
                double qw = 0, cl = 0, sim = 0;
                std::optional<bool> cached;
                const auto t0 = Clock::now();
                try {
                    const JsonValue v = jsonParse(daemon.request(req));
                    if (v.at("status").asString() != "done") {
                        why = "job " + v.at("status").asString();
                    } else {
                        stats = v.at("stats").asString();
                        qw = static_cast<double>(
                            v.at("queue_wait_us").asU64());
                        cl = static_cast<double>(
                            v.at("cache_lookup_us").asU64());
                        sim = static_cast<double>(v.at("sim_us").asU64());
                        cached = v.at("cached").asBool();
                        if (*cached == op.miss)
                            why = op.miss ? "first submission was a hit"
                                          : "resubmission missed the cache";
                        else
                            why = compareToReference(cell, stats, "service");
                    }
                } catch (const std::exception &e) {
                    why = e.what();
                }
                const double latS = secondsBetween(t0, Clock::now());
                // The cache-key fault: the reply is the in-process
                // result of the earlier cell with the same program.
                const size_t twin = sameProgramBefore[op.cell];
                const bool known = twin != cells.size() && !stats.empty() &&
                                   refError.count(cells[twin].label()) == 0 &&
                                   stats == checker.statsOf(cells[twin]);

                lock.lock();
                if (op.miss) {
                    missDone[op.cell] = true;
                    missStats[op.cell] = stats;
                } else if (why.empty() && stats != missStats[op.cell]) {
                    why = "hit differs from the miss";
                }
                if (tally.record(cell.label() + (op.miss ? " miss" : " hit"),
                                 why, known))
                    ph.add(latS * 1e3, !op.miss);
                if (cached)
                    (*cached ? hits : misses)++;
                if (traced) {
                    spans.add("service.request", job, t0, latS);
                    spans.add("service.queue_wait", job, t0, qw / 1e6);
                    spans.add("service.cache_lookup", job, t0, cl / 1e6);
                    spans.add("service.sim", job, t0, sim / 1e6);
                    sp.queueWaitUs.push_back(qw);
                    sp.cacheLookupUs.push_back(cl);
                    if (op.miss)
                        sp.simMs.push_back(sim / 1e3);
                    else
                        sp.unattributedMs.push_back(
                            latS * 1e3 - (qw + cl + sim) / 1e3);
                }
                cv.notify_all();
            }
        };
        std::thread a(client), b(client);
        a.join();
        b.join();
        checkScrape(before, daemon.scrape(), hits, misses,
                    traced ? &sp : nullptr);
    }

    /** Check the daemon's own accounting over a round: conservation
     *  on the final scrape, and exactly the hits and misses its replies
     *  reported, with no failure or retry. Adds the round's counters
     *  to @p sp when given. */
    void
    checkScrape(const std::map<std::string, u64> &before,
                const std::map<std::string, u64> &after, u64 hits,
                u64 misses, SvcPhase *sp)
    {
        const auto at = [](const std::map<std::string, u64> &s,
                           const std::string &name) {
            const auto it = s.find(name);
            return it == s.end() ? u64{0} : it->second;
        };
        const auto delta = [&](const std::string &name) {
            return at(after, name) - at(before, name);
        };
        u64 retries = 0;
        for (const auto &[name, v] : after) {
            if (name.rfind("xloops_retries_total", 0) == 0)
                retries += v - at(before, name);
        }
        const u64 admitted = at(after, "xloops_jobs_admitted_total");
        const u64 accounted = at(after, "xloops_jobs_completed_total") +
                              at(after, "xloops_jobs_failed_total") +
                              at(after, "xloops_jobs_shed_total") +
                              at(after, "xloops_jobs_cancelled_total") +
                              at(after, "xloops_jobs_in_flight");
        std::string why;
        if (admitted != accounted)
            why = strf("conservation: admitted ", admitted, " != ",
                       accounted);
        else if (delta("xloops_cache_hits_total") != hits ||
                 delta("xloops_cache_misses_total") != misses)
            why = strf("daemon counted ", delta("xloops_cache_hits_total"),
                       " hits and ", delta("xloops_cache_misses_total"),
                       " misses, its replies ", hits, " and ", misses);
        else if (delta("xloops_jobs_failed_total") != 0 || retries != 0)
            why = "daemon counted failed or retried jobs";
        tally.record("service accounting", why);
        if (!sp)
            return;
        sp->hits += static_cast<double>(delta("xloops_cache_hits_total"));
        sp->misses +=
            static_cast<double>(delta("xloops_cache_misses_total"));
        sp->wireBytes +=
            static_cast<double>(delta("xloops_wire_bytes_in_total") +
                                delta("xloops_wire_bytes_out_total"));
        sp->journalRecords +=
            static_cast<double>(delta("xloops_journal_records_total"));
    }

    void
    runService()
    {
        inProcessReferences();
        std::map<u64, size_t> lastWithProgram;
        for (size_t c = 0; c < cells.size(); c++) {
            const u64 h = assemble(cells[c].kernel->source).hash();
            const auto it = lastWithProgram.find(h);
            sameProgramBefore.push_back(
                it == lastWithProgram.end() ? cells.size() : it->second);
            lastWithProgram[h] = c;
        }
        // Set-up: daemon launch until a health probe answers; the
        // last launch serves the run.
        std::vector<double> setups;
        std::unique_ptr<Daemon> daemon;
        for (int rep = 0; rep < setupReps; rep++) {
            daemon.reset();
            daemon = std::make_unique<Daemon>(
                opt.buildDir, strf(runDir(), "/svc", rep));
            setups.push_back(daemon->startS);
        }
        SvcPhase sp;
        double peakRss = 0;
        const Phase p = measure([&](Phase &ph, bool traced) {
            serviceRound(*daemon, ph, sp, traced);
            if (ph.rounds.size() + 1 == serviceRssRounds)
                peakRss = daemon->peakRssMb();
        });
        endToEndFrom(p, median(setups),
                     peakRss > 0 ? peakRss : daemon->peakRssMb());
        inProcessLayers();
        if (!opt.trace)
            return;
        const double jobs = sp.hits + sp.misses;  // served, passed or not
        layer("service.queue_wait_us_p50", median(sp.queueWaitUs));
        layer("service.cache_lookup_us_p50", median(sp.cacheLookupUs));
        layer("service.sim_ms_p50", median(sp.simMs));
        layer("service.unattributed_ms_p50", median(sp.unattributedMs));
        layer("service.wire_bytes_per_job", sp.wireBytes / jobs);
        layer("service.journal_records_per_job", sp.journalRecords / jobs);
        layer("service.cache_hit_ratio", sp.hits / (sp.hits + sp.misses));
    }

    Options opt;
    std::vector<Cell> cells;
    Checker checker;
    Tally tally;
    SpanLog spans;
    LayerTotals layers;
    Metrics endToEnd, perLayer;
    std::map<std::string, std::string> refError;
    std::unique_ptr<Launcher> launcher;  ///< starts the xsim jobs
    u64 order;  ///< job-order random state, from the seed
    u64 nextJob = 0;
    u64 serviceRounds = 0;
    /** Per cell, the previous cell with the same program image
     *  (cells.size() when none). */
    std::vector<size_t> sameProgramBefore;
};

// -------------------------------------------------------------- self-test

/**
 * The checks checked: the unmodified program passes on both runners
 * (which must also agree byte for byte), while one corrupted output
 * word and one altered stats document are each reported as exactly
 * one failed operation that makes the run incorrect, and every
 * reference rejects a corrupted copy of its kernel's output.
 */
int
selfTest()
{
    std::vector<Cell> cells;
    for (const auto &[name, ref] : references())
        cells.push_back({&kernelByName(name), configs::ioX(),
                         ExecMode::Specialized, false});
    const Kernel *sgemm = &kernelByName("sgemm-uc");
    const Kernel *covar = &kernelByName("covar-or");
    cells.push_back({sgemm, configs::io(), ExecMode::Traditional, false});
    cells.push_back({sgemm, configs::io(), ExecMode::Traditional, true});
    cells.push_back({covar, configs::ooo4X(), ExecMode::Adaptive, false});

    Checker checker;
    checker.prepare(cells);
    SpanLog spans;
    LayerTotals layers;
    bool ok = true;
    const auto expect = [&](const char *what, const Tally &t, u64 failed) {
        const bool good = t.failed == failed && t.correct() == (failed == 0);
        std::printf("%s: %s (%llu of %llu failed, expected %llu; correct "
                    "%s)\n",
                    good ? "pass" : "FAIL", what,
                    static_cast<unsigned long long>(t.failed),
                    static_cast<unsigned long long>(t.attempted),
                    static_cast<unsigned long long>(failed),
                    t.correct() ? "true" : "false");
        for (const std::string &m : t.messages)
            std::printf("  %s\n", m.c_str());
        ok &= good;
    };

    Tally clean;
    std::map<std::string, JobResult> results;
    for (const Cell &cell : cells) {
        results[cell.label()] = runCell(cell);
        clean.record(cell.label(),
                     checker.check(cell, results[cell.label()]));
        clean.record(cell.label() + " traced",
                     checker.check(cell, runCellTraced(cell, 0, spans,
                                                       layers)));
    }
    expect("unmodified program, both runners", clean, 0);

    for (const Cell &cell : cells) {
        if (cell.kernel != sgemm && cell.kernel != covar)
            continue;
        JobResult r = results.at(cell.label());
        Region &out = r.outputs.at(cell.kernel == sgemm ? "matc" : "cov");
        out[7] ^= 1u << 3;
        Tally t;
        t.record(cell.label(), checker.check(cell, r));
        expect(strf("corrupted output word, ", cell.label()).c_str(), t, 1);
    }

    // Each reference on its own (the serial-image check above would
    // otherwise catch every corruption first).
    Tally refs;
    for (const auto &[name, ref] : references()) {
        const Cell &cell = cells[refs.attempted];
        Regions out = results.at(cell.label()).outputs;
        out.begin()->second[7] ^= 1u << 3;
        refs.record(cell.label(), ref.check(results.at(cell.label()).inputs,
                                            out).empty()
                                      ? "corruption not detected"
                                      : "");
    }
    expect("each reference rejects a corrupted output word", refs, 0);

    const Cell &first = cells.front();
    JobResult altered = results.at(first.label());
    const size_t at = altered.statsJson.find("\"cycles\": ");
    altered.statsJson[at + 11] = altered.statsJson[at + 11] == '9' ? '8' : '9';
    Tally t;
    t.record(first.label(), checker.check(first, altered));
    expect(strf("altered stats document, ", first.label()).c_str(), t, 1);

    std::printf("self-test %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    }
    return "unknown";
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <table2-lpsu|table2-gpp|"
                 "xsim-cli|svc-socket> --seed <n> --seconds <s> "
                 "--trace <0|1> [--build-dir <dir>] [--commit <id>]\n"
                 "       perfbench --self-test\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = next();
        else if (arg == "--seed")
            opt.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::strtod(next().c_str(), nullptr);
        else if (arg == "--trace")
            opt.trace = next() == "1";
        else if (arg == "--build-dir")
            opt.buildDir = next();
        else if (arg == "--commit")
            opt.commit = next();
        else if (arg == "--self-test")
            opt.selfTest = true;
        else
            usage();
    }
    try {
        if (opt.selfTest)
            return selfTest();
        if (opt.workload != "table2-lpsu" && opt.workload != "table2-gpp" &&
            opt.workload != "xsim-cli" && opt.workload != "svc-socket")
            usage();
        std::printf("host {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": "
                    "\"g++ %s\", \"build_type\": \"%s\", \"commit\": "
                    "\"%s\"}\n",
                    cpuModel().c_str(), std::thread::hardware_concurrency(),
                    __VERSION__, PERFBENCH_BUILD_TYPE, opt.commit.c_str());
        std::printf("workload %s seed %llu seconds %g trace %d\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed), opt.seconds,
                    opt.trace ? 1 : 0);
        Bench bench(opt);
        bench.run();
        bench.report();
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
