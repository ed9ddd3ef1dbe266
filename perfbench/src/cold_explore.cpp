/**
 * @file
 * cold_explore: the path every figure bench takes — each Table 1
 * accelerator compiled fresh and run once, single-shot, on a freshly
 * bound workload — plus one pass of the two-speed mapping autotuner
 * over the 36-candidate SpMSpM space. Here `compiler`, `ir`
 * instantiation and `model/analytic` carry the cost that warm_sim
 * never pays.
 */
#include <memory>

#include "bench.hpp"
#include "tuner/tuner.hpp"
#include "util/diagnostic.hpp"

namespace perfbench
{

using namespace teaal;

namespace
{

struct AccelSamples
{
    std::string accel;
    std::size_t pair = 0;
    std::uint64_t digest = 0;
    bool seen = false;
    std::vector<double> coldMs, compileMs, instantiateMs, estimateUs;
};

struct State
{
    std::vector<Pair> pairs;
    Pair tunePair;
    std::vector<tuner::Candidate> candidates;
};

State
buildState(const Options& opts, const DatasetPlan& plan)
{
    SpanScope span("bench.setup");
    State st;
    // The same pairs warm_sim measures (same seed tags).
    for (int i = 0; i < plan.instances; ++i)
        st.pairs.push_back(makePair(plan.key, plan.simScale, opts.seed,
                                    "sim", static_cast<std::uint64_t>(i)));
    st.tunePair = makePair(plan.key, plan.tuneScale, opts.seed, "tune", 0);
    st.candidates = tuner::spmspmSearchSpace();
    return st;
}

compiler::Workload
freshWorkload(const Pair& p)
{
    compiler::Workload w;
    w.add("A", p.a).add("B", p.b);
    return w;
}

class ColdExplore final : public Phase
{
  public:
    explicit ColdExplore(const Options& opts)
        : opts_(opts), plan_(datasetPlan(opts))
    {
        tuneOpts_.topK = 4;
        tuneOpts_.threads = 1;
    }

    void
    setUp(Report&) override
    {
        st_ = State();
        st_ = buildState(opts_, plan_);
        configs_.clear();
        for (const std::string& accel : acceleratorNames()) {
            for (std::size_t p = 0; p < st_.pairs.size(); ++p) {
                AccelSamples s;
                s.accel = accel;
                s.pair = p;
                configs_.push_back(s);
            }
        }
    }

    void
    measureFor(double ms, Report& report) override
    {
        Tracer::instance().setEnabled(opts_.trace);
        const Clock::time_point start = Clock::now();
        do {
            // Items rotate: every configuration, then one tuner pass.
            const std::size_t item = steps_++ % (configs_.size() + 1);
            SpanScope stepSpan("bench.step");
            if (item < configs_.size())
                coldRun(configs_[item], report);
            else
                tune(report);
        } while (msSince(start) < ms);
        Tracer::instance().setEnabled(false);
    }

    void finish(Report& report) override;

  private:
    void coldRun(AccelSamples& s, Report& report);
    void tune(Report& report);

    Options opts_;
    DatasetPlan plan_;
    State st_;
    std::vector<AccelSamples> configs_;
    tuner::TunerOptions tuneOpts_;
    std::vector<double> tuneMs_, estimatePhaseMs_;
    bool tuned_ = false;
    std::size_t bestIndex_ = 0, traced_ = 0;
    std::size_t steps_ = 0;
};

void
ColdExplore::coldRun(AccelSamples& s, Report& report)
{
    const Pair& pair = st_.pairs[s.pair];
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<compiler::CompiledModel> model;
    {
        SpanScope span("compiler.compile");
        model = std::make_unique<compiler::CompiledModel>(
            compiler::compile(acceleratorSpec(s.accel)));
    }
    const double compileMs = msSince(t0);
    const compiler::Workload w = freshWorkload(pair);
    compiler::RunOptions single;
    single.cacheState = false;
    const Clock::time_point t1 = Clock::now();
    compiler::SimulationResult r;
    {
        SpanScope span("pipeline.run");
        r = model->run(w, single);
    }
    const double firstMs = msSince(t1);
    s.coldMs.push_back(msSince(t0));
    s.compileMs.push_back(compileMs);

    const std::uint64_t d = digest(r);
    if (!s.seen) {
        s.digest = d;
        s.seen = true;
    }
    report.attempt(d == s.digest && outputMatches(r, *model, pair.reference,
                                                  false, opts_.perturb),
                   s.accel + " cold run");
    if (!opts_.trace)
        return;

    // Instantiation share, derived as in micro_compile_vs_run: the
    // single-shot run minus a steady run of the same model on the same
    // inputs once its plans are cached.
    {
        SpanScope span("pipeline.run");
        (void)model->run(w);
    }
    const Clock::time_point t2 = Clock::now();
    {
        SpanScope span("pipeline.run");
        (void)model->run(w);
    }
    s.instantiateMs.push_back(firstMs - msSince(t2));

    // Analytic fast path on a fresh fingerprint (no cache hit).
    const compiler::Workload fresh = freshWorkload(pair);
    const Clock::time_point t3 = Clock::now();
    {
        SpanScope span("analytic.estimate");
        (void)model->estimate(fresh);
    }
    s.estimateUs.push_back(msSince(t3) * 1e3);
}

void
ColdExplore::tune(Report& report)
{
    compiler::Workload tw;
    tw.add("A", st_.tunePair.a).add("B", st_.tunePair.b);
    const Clock::time_point t0 = Clock::now();
    tuner::TuneResult result;
    {
        SpanScope span("tuner.tune");
        result = tuner::tune(st_.candidates, tw, tuneOpts_);
    }
    tuneMs_.push_back(msSince(t0));
    if (!tuned_) {
        bestIndex_ = result.bestIndex;
        traced_ = result.tracedCount;
        tuned_ = true;
    }
    report.attempt(result.bestIndex == bestIndex_ &&
                       result.tracedCount == traced_,
                   "tune bestIndex stable");
    if (!opts_.trace)
        return;

    // The tuner's analytic phase from outside: compile and estimate
    // every candidate.
    const Clock::time_point t1 = Clock::now();
    for (const tuner::Candidate& c : st_.candidates) {
        std::unique_ptr<compiler::CompiledModel> m;
        {
            SpanScope span("compiler.compile");
            m = std::make_unique<compiler::CompiledModel>(
                compiler::compile(c.spec));
        }
        SpanScope span("analytic.estimate");
        try {
            (void)m->estimate(tw);
        } catch (const DiagnosticError&) {
            // The tuner traces such candidates instead; so does its
            // cost here.
        }
    }
    estimatePhaseMs_.push_back(msSince(t1));
}

void
ColdExplore::finish(Report& report)
{
    std::vector<double> cold;
    std::size_t n = 0;
    for (const AccelSamples& s : configs_) {
        cold.push_back(median(s.coldMs));
        n += s.coldMs.size();
    }
    report.metric("cold_run_ms", geomean(cold), "ms", n);
    report.metric("tune_ms", median(tuneMs_), "ms", tuneMs_.size());
    report.metric("peak_rss_mb", peakRssMb(), "MB", 1);
    if (!opts_.trace)
        return;

    for (const std::string& accel : acceleratorNames()) {
        double compile = 0, inst = 0, est = 0;
        std::size_t samples = 0;
        int count = 0;
        for (const AccelSamples& s : configs_) {
            if (s.accel != accel)
                continue;
            compile += median(s.compileMs);
            inst += median(s.instantiateMs);
            est += median(s.estimateUs);
            samples += s.compileMs.size();
            ++count;
        }
        report.metric("compiler.compile_ms." + accel, compile / count, "ms",
                      samples);
        report.metric("ir.instantiate_ms." + accel, inst / count, "ms",
                      samples);
        report.metric("analytic.estimate_us." + accel, est / count, "us",
                      samples);
    }
    const double estPhase = median(estimatePhaseMs_);
    report.metric("tuner.estimate_phase_ms", estPhase, "ms",
                  estimatePhaseMs_.size());
    report.metric("tuner.trace_phase_ms", median(tuneMs_) - estPhase, "ms",
                  tuneMs_.size());
    report.metric("tuner.traced", static_cast<double>(traced_), "count", 1);
}

} // namespace

std::unique_ptr<Phase>
makeColdExplore(const Options& opts)
{
    return std::make_unique<ColdExplore>(opts);
}

} // namespace perfbench
