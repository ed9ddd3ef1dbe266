/**
 * @file
 * Shared infrastructure of the repository benchmark (perfbench):
 * seeded input generation, timing statistics, the result digest the
 * correctness gate compares, the metric sink each phase prints, and
 * the span tracer that times every layer from outside its public
 * calls.
 *
 * Layers are never instrumented from the inside: every span wraps one
 * call into a public library function, so a span's self time is what
 * the named layer (and whatever it calls that the benchmark cannot
 * see) costs the caller.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compiler/pipeline.hpp"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** The four Table 1 accelerators, in the order every phase uses. */
const std::vector<std::string>& acceleratorNames();

/** The canned specification of @p accel ("extensor", "gamma", ...). */
teaal::compiler::Specification acceleratorSpec(const std::string& accel);

/** Command-line options shared by every phase. */
struct Options
{
    std::string phase;
    std::string dataset = "wi";
    std::uint64_t seed = 1;
    bool trace = false;
    /// Self-test mode: inputs shrunk to a few hundred nonzeros.
    bool tiny = false;
    /// Self-test of the gate: corrupt one result before checking it.
    bool perturb = false;
    /// Directory for span dumps and scratch files (inside the
    /// checkout; created on demand).
    std::string workDir = ".bench_build/perfbench-work";
};

/**
 * Per-dataset input sizes. Scales shrink the Table 4 stand-in so one
 * steady run takes tens of milliseconds; `instances` independent pairs
 * per run average out the seed-to-seed spread of a synthetic matrix's
 * work (large for power-law data, where hub rows dominate).
 */
struct DatasetPlan
{
    std::string key;
    double simScale = 0;   ///< warm_sim / cold_explore pairs
    double serveScale = 0; ///< serve_mix pairs
    double tuneScale = 0;  ///< the tuner's pair
    int instances = 1;     ///< pairs in warm_sim and cold_explore
};

DatasetPlan datasetPlan(const Options& opts);

/** Seed of input @p tag / @p index for run seed @p seed (splitmix64). */
std::uint64_t deriveSeed(std::uint64_t seed, const std::string& tag,
                         std::uint64_t index);

/** One SpMSpM operand pair (B = A over ranks [K, N]) and its
 *  Gustavson reference output. */
struct Pair
{
    teaal::ft::Tensor a;
    teaal::ft::Tensor b;
    teaal::ft::Tensor reference;
    double synthMs = 0; ///< host time synthesizing A and B
};

/** Synthesize pair @p index of @p dataset at @p scale (spans:
 *  workloads.synthesize, baselines.gustavsonSpmspm). */
Pair makePair(const std::string& dataset, double scale,
              std::uint64_t seed, const std::string& tag,
              std::uint64_t index);

/**
 * Everything the correctness gate requires to repeat exactly across
 * samples and thread counts: per-record counters, component actions,
 * per-PE loads, traffic, trace-event and batch counts, execution
 * stats, modeled time and energy. Doubles are hashed bit-for-bit.
 */
std::uint64_t digest(const teaal::compiler::SimulationResult& r);

/** Total simulated trace events of a run. */
std::size_t traceEvents(const teaal::compiler::SimulationResult& r);

/** Output check against the Gustavson reference: exact, except that
 *  a @p sharded run's reduce merge may regroup floating-point sums.
 *  @p perturb compares against a deliberately corrupted reference. */
bool outputMatches(const teaal::compiler::SimulationResult& r,
                   const teaal::compiler::CompiledModel& model,
                   const teaal::ft::Tensor& reference, bool sharded,
                   bool perturb);

double median(std::vector<double> v);
/** Linear-interpolated quantile, @p q in [0, 1]. */
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);

/** Peak resident set of this process (VmHWM) in MB. */
double peakRssMb();

/**
 * The metrics one phase prints: each with its unit and the number of
 * samples behind it, plus the operation counts of the correctness
 * gate. Emitted as one JSON line, which perfbench/run.py reads.
 */
class Report
{
  public:
    void metric(const std::string& name, double value,
                const std::string& unit, std::size_t samples);
    /** Count one attempted operation; @p ok false counts a failure
     *  (an error, a refusal or an incorrect output). */
    void attempt(bool ok, const std::string& what = "");
    std::uint64_t failed() const { return failed_; }
    void print(const Options& opts) const;

  private:
    struct Entry
    {
        double value;
        std::string unit;
        std::size_t samples;
    };
    std::map<std::string, Entry> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    mutable std::mutex mutex_;
};

/**
 * In-memory span recorder. Off by default, when a SpanScope costs one
 * branch; the traced pass turns it on. Spans nest per thread (the
 * innermost open span on the calling thread is the parent) and carry
 * an optional request id; they are written out once, when the pass
 * ends.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0;
        double endUs = 0;
        int parent = -1;
        std::uint64_t request = 0;
    };

    static Tracer& instance();

    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    int open(const char* name, std::uint64_t request);
    void close(int index);

    /** Self time (span duration minus the time its children cover),
     *  summed per layer — the span-name prefix before the first '.'. */
    std::map<std::string, double> selfMsByLayer() const;

    /** Write every span as a Chrome trace-event JSON array. */
    void write(const std::string& path) const;

  private:
    std::atomic<bool> enabled_{false};
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span around one call into a layer. */
class SpanScope
{
  public:
    explicit SpanScope(const char* name, std::uint64_t request = 0)
    {
        Tracer& t = Tracer::instance();
        if (t.enabled())
            index_ = t.open(name, request);
    }
    ~SpanScope()
    {
        if (index_ >= 0)
            Tracer::instance().close(index_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    int index_ = -1;
};

/** Layers whose self time the traced pass reports (fixed set, so
 *  every run prints the same metric names). */
const std::vector<std::string>& tracedLayers();

/** Report each traced layer's self time and dump the spans. */
void reportSelfTimes(Report& report, const Options& opts);

/**
 * One phase of a run (warm_sim, cold_explore or serve_mix), driven in
 * time slices: the coordinator (perfbench/run.py) interleaves the
 * three phases' slices so that every phase samples the whole run, and
 * a slow spell of the host lands on all of them alike instead of on
 * whichever phase happened to be running.
 */
class Phase
{
  public:
    virtual ~Phase() = default;
    /** Build inputs, compile and warm caches. Called several times;
     *  each call replaces the previous state, the last one is
     *  measured. */
    virtual void setUp(Report& report) = 0;
    /** Take samples for about @p ms milliseconds. */
    virtual void measureFor(double ms, Report& report) = 0;
    /** Turn the samples into metrics. */
    virtual void finish(Report& report) = 0;
};

std::unique_ptr<Phase> makeWarmSim(const Options& opts);
std::unique_ptr<Phase> makeColdExplore(const Options& opts);
std::unique_ptr<Phase> makeServeMix(const Options& opts);
std::unique_ptr<Phase> makeCalibrate(const Options& opts);

} // namespace perfbench
