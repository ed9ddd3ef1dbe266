/**
 * @file
 * serve_mix: an in-process serve::Server on loopback, driven as a
 * closed loop by two client connections. Each client runs a seeded
 * mix: about 70% `evaluate` on already-bound pairs (plan-cache hits),
 * 15% `estimate`, and 15% writes — two `load_dataset` requests of
 * packed store files followed by an `evaluate` on the new bindings (a
 * plan-cache miss, so instantiation runs). It is the only phase where
 * serve queueing, admission, JSON and registry writes sit on the
 * critical path.
 */
#include <atomic>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "storage/packed.hpp"
#include "storage/store.hpp"

namespace perfbench
{

using namespace teaal;

namespace
{

constexpr int kHotPairs = 4;
constexpr int kWritePairs = 4;
constexpr int kClients = 2;
const char* const kAccel = "gamma";

/** What the in-process run and estimate report for one pair. */
struct Expected
{
    double muls = 0;
    double traffic = 0;
    double estMuls = 0;
    double estTraffic = 0;
    std::string aStore, bStore;
    double aNnz = 0, bNnz = 0;
};

struct State
{
    std::string dir;
    std::vector<Expected> expected; // hot pairs first, then write pairs
    std::unique_ptr<serve::Server> server;
    std::string model;
    std::vector<std::string> hotEvaluate, hotEstimate; // request lines
    std::vector<double> packMs, mapMs;
};

serve::Json
str(const std::string& s)
{
    return serve::Json::makeString(s);
}

std::string
loadLine(const std::string& path, const char* name, const char* col)
{
    serve::Json req = serve::Json::makeObject();
    req.set("op", str("load_dataset"));
    req.set("path", str(path));
    req.set("name", str(name));
    serve::Json ranks = serve::Json::makeArray();
    ranks.push(str("K"));
    ranks.push(str(col));
    req.set("rank_ids", std::move(ranks));
    return req.dump();
}

std::string
evalLine(const char* op, const std::string& model, const std::string& a,
         const std::string& b)
{
    serve::Json bindings = serve::Json::makeObject();
    bindings.set("A", str(a));
    bindings.set("B", str(b));
    serve::Json req = serve::Json::makeObject();
    req.set("op", str(op));
    req.set("model", str(model));
    req.set("bindings", std::move(bindings));
    if (std::string(op) == "evaluate")
        req.set("threads", serve::Json::makeNumber(1));
    return req.dump();
}

double
field(const serve::Json& r, const char* key)
{
    const serve::Json* f = r.find(key);
    return f != nullptr && f->isNumber() ? f->number() : -1;
}

bool
okResponse(const serve::Json& r)
{
    const serve::Json* ok = r.find("ok");
    return ok != nullptr && ok->isBool() && ok->boolean();
}

/** Pack, store, reference-run and register every pair; start the
 *  server and warm the hot pairs' plans. */
State
buildState(const Options& opts, const DatasetPlan& plan, Report& report,
           int repeat)
{
    SpanScope span("bench.setup");
    State st;
    st.dir = opts.workDir + "/serve-" + std::to_string(::getpid()) + "-" +
             std::to_string(repeat);
    std::filesystem::create_directories(st.dir);

    compiler::CompiledModel model =
        compiler::compile(acceleratorSpec(kAccel));
    for (int i = 0; i < kHotPairs + kWritePairs; ++i) {
        const Pair p = makePair(plan.key, plan.serveScale, opts.seed,
                                "serve", static_cast<std::uint64_t>(i));
        Expected e;
        e.aStore = st.dir + "/a" + std::to_string(i) + ".teaal";
        e.bStore = st.dir + "/b" + std::to_string(i) + ".teaal";
        {
            const Clock::time_point t0 = Clock::now();
            SpanScope ps("storage.writeStore");
            storage::writeStore(e.aStore,
                                storage::PackedTensor::fromTensor(p.a));
            storage::writeStore(e.bStore,
                                storage::PackedTensor::fromTensor(p.b));
            st.packMs.push_back(msSince(t0));
        }
        {
            const Clock::time_point t0 = Clock::now();
            SpanScope ms("storage.mapStore");
            e.aNnz = static_cast<double>(storage::mapStore(e.aStore).nnz());
            e.bNnz = static_cast<double>(storage::mapStore(e.bStore).nnz());
            st.mapMs.push_back(msSince(t0));
        }
        // The in-process reference the served responses must equal:
        // the same model on the pointer tensors.
        compiler::Workload w;
        w.add("A", p.a).add("B", p.b);
        compiler::RunOptions single;
        single.cacheState = false;
        compiler::SimulationResult r;
        {
            SpanScope rs("pipeline.run");
            r = model.run(w, single);
        }
        report.attempt(outputMatches(r, model, p.reference, false, opts.perturb),
                       "serve reference output vs Gustavson");
        for (const model::EinsumRecord& rec : r.records)
            e.muls += static_cast<double>(rec.execStats.computeMuls);
        e.traffic = r.totalTrafficBytes();
        {
            SpanScope es("analytic.estimate");
            const model::analytic::AnalyticEstimate est =
                model.estimate(w);
            e.estMuls = est.mulOps;
            e.estTraffic = est.totalTrafficBytes();
        }
        st.expected.push_back(std::move(e));
    }

    serve::ServerOptions so;
    // Room for every hot pair plus a few write-path entries, so reads
    // stay plan-cache hits while writes churn the tail of the LRU.
    so.planCacheCapacity = kHotPairs + 4;
    st.server = std::make_unique<serve::Server>(so);
    st.server->start();

    serve::Client control;
    control.connect(st.server->port());
    const serve::Json compiled = serve::parseJson(control.requestLine(
        "{\"op\":\"compile\",\"accel\":\"" + std::string(kAccel) + "\"}"));
    report.attempt(okResponse(compiled), "serve compile");
    st.model = compiled.find("model") != nullptr
                   ? compiled.find("model")->str()
                   : "";
    for (int i = 0; i < kHotPairs; ++i) {
        const Expected& e = st.expected[static_cast<std::size_t>(i)];
        const serve::Json a = serve::parseJson(
            control.requestLine(loadLine(e.aStore, "A", "M")));
        const serve::Json b = serve::parseJson(
            control.requestLine(loadLine(e.bStore, "B", "N")));
        report.attempt(okResponse(a) && okResponse(b), "serve load hot");
        const std::string da = okResponse(a) ? a.find("dataset")->str() : "";
        const std::string db = okResponse(b) ? b.find("dataset")->str() : "";
        st.hotEvaluate.push_back(evalLine("evaluate", st.model, da, db));
        st.hotEstimate.push_back(evalLine("estimate", st.model, da, db));
        // Warm: the first evaluation instantiates and caches the plans.
        const serve::Json r =
            serve::parseJson(control.requestLine(st.hotEvaluate.back()));
        report.attempt(okResponse(r) &&
                           field(r, "compute_muls") == e.muls &&
                           field(r, "traffic_bytes") == e.traffic,
                       "serve warm evaluate");
    }
    return st;
}

/** One client connection of the closed loop and what it recorded. */
struct ClientState
{
    serve::Client conn;
    std::mt19937_64 rng;
    std::vector<double> evalMs, runMs, queueMs, wireMs;
    std::uint64_t ok = 0;
};

serve::Json
statsOf(int port)
{
    serve::Client c;
    c.connect(port);
    return serve::parseJson(c.requestLine("{\"op\":\"stats\"}"));
}

double
counter(const serve::Json& stats, const char* group, const char* key)
{
    const serve::Json* g = stats.find(group);
    return g == nullptr ? 0 : field(*g, key);
}

class ServeMix final : public Phase
{
  public:
    explicit ServeMix(const Options& opts)
        : opts_(opts), plan_(datasetPlan(opts))
    {
    }

    ~ServeMix() override { tearDown(); }

    void
    setUp(Report& report) override
    {
        tearDown();
        st_ = buildState(opts_, plan_, report, setups_++);
        clients_.clear();
        for (int i = 0; i < kClients; ++i) {
            auto c = std::make_unique<ClientState>();
            c->rng.seed(deriveSeed(opts_.seed, "client", i));
            c->conn.connect(st_.server->port());
            clients_.push_back(std::move(c));
        }
        before_ = statsOf(st_.server->port());
    }

    void
    measureFor(double ms, Report& report) override
    {
        Tracer::instance().setEnabled(opts_.trace);
        const Clock::time_point start = Clock::now();
        std::vector<std::thread> threads;
        for (auto& c : clients_)
            threads.emplace_back([&, client = c.get()] {
                while (msSince(start) < ms)
                    request(*client, report);
            });
        for (std::thread& t : threads)
            t.join();
        windowS_ += msSince(start) / 1e3;
        Tracer::instance().setEnabled(false);
    }

    void finish(Report& report) override;

  private:
    /** One draw of the seeded mix: a read, an estimate or a write. */
    void request(ClientState& c, Report& report);
    serve::Json send(ClientState& c, const std::string& line, double& rttMs);
    void evaluate(ClientState& c, const std::string& line,
                  const Expected& e, Report& report);

    void
    tearDown()
    {
        if (st_.server)
            st_.server->stop();
        if (!st_.dir.empty())
            std::filesystem::remove_all(st_.dir);
        clients_.clear();
        st_ = State();
    }

    Options opts_;
    DatasetPlan plan_;
    State st_;
    int setups_ = 0;
    std::vector<std::unique_ptr<ClientState>> clients_;
    serve::Json before_;
    double windowS_ = 0;
    std::atomic<std::uint64_t> nextRequest_{1};
};

serve::Json
ServeMix::send(ClientState& c, const std::string& line, double& rttMs)
{
    SpanScope span("serve.request", nextRequest_.fetch_add(1));
    const Clock::time_point t0 = Clock::now();
    const std::string response = c.conn.requestLine(line);
    rttMs = msSince(t0);
    return serve::parseJson(response);
}

void
ServeMix::evaluate(ClientState& c, const std::string& line,
                   const Expected& e, Report& report)
{
    double rtt = 0;
    const serve::Json r = send(c, line, rtt);
    const double latency = field(r, "latency_ms");
    const double elapsed = field(r, "elapsed_ms");
    // Served counters equal the in-process run's, and the run happens
    // inside the request's lifetime.
    const bool ok = okResponse(r) && field(r, "compute_muls") == e.muls &&
                    field(r, "traffic_bytes") == e.traffic &&
                    latency >= 0 && latency <= elapsed && elapsed <= rtt;
    report.attempt(ok, "serve evaluate");
    if (!ok)
        return;
    ++c.ok;
    c.evalMs.push_back(rtt);
    c.runMs.push_back(latency);
    c.queueMs.push_back(elapsed - latency);
    c.wireMs.push_back(rtt - elapsed);
}

void
ServeMix::request(ClientState& c, Report& report)
{
    const double draw = std::uniform_real_distribution<double>(0, 1)(c.rng);
    if (draw < 0.70) {
        const std::size_t h = c.rng() % kHotPairs;
        evaluate(c, st_.hotEvaluate[h], st_.expected[h], report);
    } else if (draw < 0.85) {
        const std::size_t h = c.rng() % kHotPairs;
        double rtt = 0;
        const serve::Json r = send(c, st_.hotEstimate[h], rtt);
        const bool ok =
            okResponse(r) &&
            field(r, "compute_muls_est") == st_.expected[h].estMuls &&
            field(r, "traffic_bytes_est") == st_.expected[h].estTraffic;
        report.attempt(ok, "serve estimate");
        c.ok += ok ? 1 : 0;
    } else {
        const std::size_t j = kHotPairs + c.rng() % kWritePairs;
        const Expected& e = st_.expected[j];
        double rtt = 0;
        const serve::Json a = send(c, loadLine(e.aStore, "A", "M"), rtt);
        const serve::Json b = send(c, loadLine(e.bStore, "B", "N"), rtt);
        const bool okA = okResponse(a) && field(a, "nnz") == e.aNnz;
        const bool okB = okResponse(b) && field(b, "nnz") == e.bNnz;
        report.attempt(okA, "serve load_dataset");
        report.attempt(okB, "serve load_dataset");
        c.ok += (okA ? 1 : 0) + (okB ? 1 : 0);
        if (okA && okB)
            evaluate(c,
                     evalLine("evaluate", st_.model,
                              a.find("dataset")->str(),
                              b.find("dataset")->str()),
                     e, report);
    }
}

void
ServeMix::finish(Report& report)
{
    const serve::Json after = statsOf(st_.server->port());
    std::vector<double> evalMs, runMs, queueMs, wireMs;
    std::uint64_t ok = 0;
    for (const auto& c : clients_) {
        evalMs.insert(evalMs.end(), c->evalMs.begin(), c->evalMs.end());
        runMs.insert(runMs.end(), c->runMs.begin(), c->runMs.end());
        queueMs.insert(queueMs.end(), c->queueMs.begin(), c->queueMs.end());
        wireMs.insert(wireMs.end(), c->wireMs.begin(), c->wireMs.end());
        ok += c->ok;
    }
    const std::size_t n = evalMs.size();
    report.metric("eval_ms.p50", quantile(evalMs, 0.5), "ms", n);
    report.metric("eval_ms.p90", quantile(evalMs, 0.9), "ms", n);
    report.metric("req_per_s", static_cast<double>(ok) / windowS_, "1/s",
                  ok);
    report.metric("peak_rss_mb", peakRssMb(), "MB", 1);
    if (opts_.trace) {
        report.metric("serve.run_ms.p50", quantile(runMs, 0.5), "ms", n);
        report.metric("serve.queue_ms.p50", quantile(queueMs, 0.5), "ms", n);
        report.metric("serve.wire_ms.p50", quantile(wireMs, 0.5), "ms", n);
        const double hits = counter(after, "plan_cache", "hits") -
                            counter(before_, "plan_cache", "hits");
        const double misses = counter(after, "plan_cache", "misses") -
                              counter(before_, "plan_cache", "misses");
        report.metric("serve.plan_hit_ratio",
                      hits + misses > 0 ? hits / (hits + misses) : 0,
                      "ratio", static_cast<std::size_t>(hits + misses));
        report.metric("admission.shed",
                      counter(after, "admission", "shed") -
                          counter(before_, "admission", "shed"),
                      "count", 1);
        report.metric("registry.evictions",
                      counter(after, "registry", "evictions") -
                          counter(before_, "registry", "evictions"),
                      "count", 1);
        report.metric("storage.pack_ms", median(st_.packMs), "ms",
                      st_.packMs.size());
        report.metric("storage.map_ms", median(st_.mapMs), "ms",
                      st_.mapMs.size());
    }
    tearDown();
}

} // namespace

std::unique_ptr<Phase>
makeServeMix(const Options& opts)
{
    return std::make_unique<ServeMix>(opts);
}

} // namespace perfbench
