/**
 * @file
 * warm_sim: every Table 1 accelerator on the workload's dataset with a
 * warm plan cache, each (accelerator, pair) timed serially and
 * sharded. `exec`, `trace` and `model` do nearly all the work here and
 * `compiler`/`ir` none; the two thread counts drive the trace bus in
 * its two modes (live delivery when serial, capture/fixup/replay plus
 * shard accumulators when sharded).
 */
#include <algorithm>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "energy/energy.hpp"
#include "exec/executor.hpp"
#include "model/perf.hpp"
#include "trace/batch.hpp"
#include "util/thread_pool.hpp"

namespace perfbench
{

using namespace teaal;

namespace
{

/** Trace sink that drops every batch: the walk alone, no model. */
class DiscardSink : public trace::Observer
{
  public:
    void onEventBatch(const trace::EventBatch&) override {}
};

/** One (accelerator, pair) configuration and its samples. */
struct Config
{
    std::string accel;
    std::size_t pair = 0;
    compiler::CompiledModel* model = nullptr;
    compiler::Workload workload;
    std::uint64_t digest = 0;
    std::size_t events = 0;
    std::vector<double> serialMs, shardedMs, tracedSerialMs;
    std::vector<double> walkMs, shardedWalkMs, analyzeMs;
};

struct State
{
    std::vector<Pair> pairs;
    std::vector<std::unique_ptr<compiler::CompiledModel>> models;
    std::vector<std::unique_ptr<Config>> configs;
};

unsigned
shardThreads()
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(4u, hw);
}

compiler::SimulationResult
timedRun(Config& c, unsigned threads, double& ms)
{
    compiler::RunOptions ro;
    ro.threads = threads;
    SpanScope span("pipeline.run");
    const Clock::time_point t0 = Clock::now();
    compiler::SimulationResult r = c.model->run(c.workload, ro);
    ms = msSince(t0);
    return r;
}

/** Builds inputs, compiles, and warms every plan cache (serial and
 *  sharded), recording each configuration's reference digest. */
State
buildState(const Options& opts, const DatasetPlan& plan, Report& report)
{
    SpanScope span("bench.setup");
    State st;
    for (int i = 0; i < plan.instances; ++i)
        st.pairs.push_back(makePair(plan.key, plan.simScale, opts.seed,
                                    "sim", static_cast<std::uint64_t>(i)));
    for (const std::string& accel : acceleratorNames()) {
        {
            SpanScope cs("compiler.compile");
            st.models.push_back(std::make_unique<compiler::CompiledModel>(
                compiler::compile(acceleratorSpec(accel))));
        }
        for (std::size_t p = 0; p < st.pairs.size(); ++p) {
            auto c = std::make_unique<Config>();
            c->accel = accel;
            c->pair = p;
            c->model = st.models.back().get();
            c->workload.add("A", st.pairs[p].a).add("B", st.pairs[p].b);
            double ms = 0;
            const compiler::SimulationResult first = timedRun(*c, 1, ms);
            c->digest = digest(first);
            c->events = traceEvents(first);
            report.attempt(outputMatches(first, *c->model,
                                         st.pairs[p].reference, false,
                                         opts.perturb),
                           accel + " serial output vs Gustavson");
            const compiler::SimulationResult sharded =
                timedRun(*c, shardThreads(), ms);
            report.attempt(digest(sharded) == c->digest &&
                               outputMatches(sharded, *c->model,
                                             st.pairs[p].reference, true,
                                             opts.perturb),
                           accel + " sharded vs serial");
            st.configs.push_back(std::move(c));
        }
    }
    return st;
}

double
walkMs(Config& c, unsigned threads, util::ThreadPool* pool)
{
    const std::vector<ir::EinsumPlan>* plans = nullptr;
    {
        SpanScope span("ir.plans");
        plans = &c.model->plans(c.workload);
    }
    DiscardSink sink;
    exec::ExecOptions eo;
    eo.threads = threads;
    eo.pool = pool;
    double total = 0;
    for (const ir::EinsumPlan& plan : *plans) {
        SpanScope span("exec.Executor.run");
        const Clock::time_point t0 = Clock::now();
        exec::Executor ex(plan, sink, exec::Semiring::arithmetic(), eo);
        const ft::Tensor out = ex.run();
        total += msSince(t0);
    }
    return total;
}

double
analyzeMs(const compiler::CompiledModel& model,
          const compiler::SimulationResult& r)
{
    const Clock::time_point t0 = Clock::now();
    model::CascadePerf perf;
    {
        SpanScope span("perf.analyze");
        perf = model::analyze(r.records, model.spec().architecture,
                              model.blocks());
    }
    energy::EnergyBreakdown e;
    {
        SpanScope span("energy.energyOf");
        for (const model::EinsumRecord& rec : r.records)
            e += energy::energyOf(
                rec, model.spec().architecture.topology(rec.topologyName));
    }
    const double ms = msSince(t0);
    // The analysis must reproduce what run() reported.
    if (perf.totalSeconds != r.perf.totalSeconds ||
        e.totalJoules != r.energy.totalJoules)
        return -1;
    return ms;
}

class WarmSim final : public Phase
{
  public:
    explicit WarmSim(const Options& opts)
        : opts_(opts), plan_(datasetPlan(opts)), threads_(shardThreads()),
          pool_(threads_)
    {
    }

    void
    setUp(Report& report) override
    {
        st_ = State();
        st_ = buildState(opts_, plan_, report);
    }

    void
    measureFor(double ms, Report& report) override
    {
        const Clock::time_point start = Clock::now();
        do
            step(report);
        while (msSince(start) < ms);
        Tracer::instance().setEnabled(false);
    }

    void finish(Report& report) override;

  private:
    /** One sample of one configuration: a serial and a sharded run
     *  (plus, when tracing, the layer probes). */
    void step(Report& report);

    Options opts_;
    DatasetPlan plan_;
    unsigned threads_;
    util::ThreadPool pool_;
    State st_;
    std::size_t steps_ = 0;
};

void
WarmSim::step(Report& report)
{
    const std::size_t n = st_.configs.size();
    Config& c = *st_.configs[steps_ % n];
    const std::size_t round = steps_ / n;
    ++steps_;
    // In the traced pass every other round runs with spans off, so the
    // same pass measures the tracing overhead.
    const bool spansOn = opts_.trace && round % 2 == 0;
    Tracer::instance().setEnabled(spansOn);
    SpanScope stepSpan("bench.step");

    const Pair& pair = st_.pairs[c.pair];
    const bool full = round == 0; // output checked on the first round
    double ms = 0;
    compiler::SimulationResult r = timedRun(c, 1, ms);
    (spansOn ? c.tracedSerialMs : c.serialMs).push_back(ms);
    report.attempt(digest(r) == c.digest &&
                       (!full || outputMatches(r, *c.model, pair.reference,
                                               false, opts_.perturb)),
                   c.accel + " serial sample");
    r = timedRun(c, threads_, ms);
    c.shardedMs.push_back(ms);
    report.attempt(digest(r) == c.digest &&
                       (!full || outputMatches(r, *c.model, pair.reference,
                                               true, opts_.perturb)),
                   c.accel + " sharded sample");
    if (!opts_.trace)
        return;
    c.walkMs.push_back(walkMs(c, 1, nullptr));
    c.shardedWalkMs.push_back(walkMs(c, threads_, &pool_));
    const double a = analyzeMs(*c.model, r);
    report.attempt(a >= 0, c.accel + " analyze reproduces run");
    c.analyzeMs.push_back(std::max(a, 0.0));
}

void
WarmSim::finish(Report& report)
{
    std::vector<double> serial, sharded, traced;
    double events = 0, serialSeconds = 0;
    std::size_t nSerial = 0, nSharded = 0, nTraced = 0, nWalk = 0;
    for (const auto& c : st_.configs) {
        serial.push_back(median(c->serialMs));
        sharded.push_back(median(c->shardedMs));
        for (const double ms : c->serialMs) {
            events += static_cast<double>(c->events);
            serialSeconds += ms / 1e3;
        }
        nSerial += c->serialMs.size();
        nSharded += c->shardedMs.size();
        nTraced += c->tracedSerialMs.size();
        nWalk += c->walkMs.size();
        if (opts_.trace)
            traced.push_back(median(c->tracedSerialMs));
    }
    report.metric("run_ms.serial", geomean(serial), "ms", nSerial);
    report.metric("run_ms.sharded", geomean(sharded), "ms", nSharded);
    report.metric("events_per_s.serial", events / serialSeconds, "1/s",
                  nSerial);
    report.metric("peak_rss_mb", peakRssMb(), "MB", 1);
    if (!opts_.trace)
        return;

    report.metric("bench.trace_overhead_ms",
                  geomean(traced) - geomean(serial), "ms", nTraced);
    std::vector<double> synth;
    for (const Pair& p : st_.pairs)
        synth.push_back(p.synthMs);
    report.metric("workloads.synth_ms", median(synth), "ms", synth.size());

    // Per-accelerator layer metrics: mean over the dataset's pairs of
    // each pair's median (ratios: geometric mean).
    double analyzeTotal = 0;
    for (const std::string& accel : acceleratorNames()) {
        double walk = 0, swalk = 0, self = 0, ev = 0, nsPerEvent = 0;
        std::vector<double> scaling;
        std::size_t samples = 0;
        int count = 0;
        for (const auto& c : st_.configs) {
            if (c->accel != accel)
                continue;
            std::vector<double> all = c->serialMs;
            all.insert(all.end(), c->tracedSerialMs.begin(),
                       c->tracedSerialMs.end());
            const double run = median(all);
            const double w = median(c->walkMs);
            const double a = median(c->analyzeMs);
            walk += w;
            swalk += median(c->shardedWalkMs);
            self += run - w - a;
            ev += static_cast<double>(c->events);
            nsPerEvent += run * 1e6 / static_cast<double>(c->events);
            scaling.push_back(run / median(c->shardedMs));
            analyzeTotal += a;
            samples += c->walkMs.size();
            ++count;
        }
        const double k = count;
        report.metric("exec.walk_ms." + accel, walk / k, "ms", samples);
        report.metric("exec.sharded_walk_ms." + accel, swalk / k, "ms",
                      samples);
        report.metric("model.self_ms." + accel, self / k, "ms", samples);
        report.metric("exec.scaling." + accel, geomean(scaling), "x",
                      samples);
        report.metric("trace.events." + accel, ev / k, "count", 1);
        report.metric("trace.ns_per_event." + accel, nsPerEvent / k, "ns",
                      samples);
    }
    report.metric("perf.analyze_ms",
                  analyzeTotal / static_cast<double>(st_.pairs.size()), "ms",
                  nWalk);
}

} // namespace

std::unique_ptr<Phase>
makeWarmSim(const Options& opts)
{
    return std::make_unique<WarmSim>(opts);
}

} // namespace perfbench
