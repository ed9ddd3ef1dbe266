#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "accelerators/accelerators.hpp"
#include "baselines/baselines.hpp"
#include "workloads/datasets.hpp"

namespace perfbench
{

using namespace teaal;

const std::vector<std::string>&
acceleratorNames()
{
    static const std::vector<std::string> names{"extensor", "gamma",
                                                "outerspace", "sigma"};
    return names;
}

compiler::Specification
acceleratorSpec(const std::string& accel)
{
    if (accel == "extensor")
        return accel::extensor();
    if (accel == "gamma")
        return accel::gamma();
    if (accel == "outerspace")
        return accel::outerSpace();
    if (accel == "sigma")
        return accel::sigma();
    throw std::invalid_argument("unknown accelerator " + accel);
}

DatasetPlan
datasetPlan(const Options& opts)
{
    // Sized on a 4-vCPU x86 host so that a steady serial run of each
    // accelerator takes roughly 10-100 ms: small enough for many
    // samples per run, large enough that per-run overheads stay
    // negligible. `po` is far denser per row than `wi`, hence the
    // smaller scale.
    DatasetPlan p;
    p.key = opts.dataset;
    if (opts.dataset == "wi") {
        p.simScale = 0.015;
        p.serveScale = 0.01;
        p.tuneScale = 0.03;
        p.instances = 3;
    } else if (opts.dataset == "po") {
        p.simScale = 0.006;
        p.serveScale = 0.002;
        p.tuneScale = 0.006;
        p.instances = 3;
    } else {
        throw std::invalid_argument("unknown dataset " + opts.dataset +
                                    " (expected wi or po)");
    }
    if (opts.tiny) {
        p.simScale /= 6;
        p.serveScale /= 6;
        p.tuneScale /= 6;
        p.instances = 1;
    }
    return p;
}

std::uint64_t
deriveSeed(std::uint64_t seed, const std::string& tag, std::uint64_t index)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : tag)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + h + index;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Pair
makePair(const std::string& dataset, double scale, std::uint64_t seed,
         const std::string& tag, std::uint64_t index)
{
    const workloads::DatasetInfo& info = workloads::dataset(dataset);
    Pair p;
    {
        SpanScope span("workloads.synthesize");
        const Clock::time_point t0 = Clock::now();
        p.a = workloads::synthesize(info, "A",
                                    deriveSeed(seed, tag + "/A", index),
                                    scale, {"K", "M"});
        // B is A re-labelled [K, N] (Z = A^T A). With independent
        // power-law operands the work hinges on whether their hub rows
        // happen to align, which swings by tens of percent from seed
        // to seed; against itself, a matrix's work depends on its
        // degree distribution, which the seed only permutes.
        p.b = workloads::synthesize(info, "B",
                                    deriveSeed(seed, tag + "/A", index),
                                    scale, {"K", "N"});
        p.synthMs = msSince(t0);
    }
    SpanScope span("baselines.gustavsonSpmspm");
    p.reference = baselines::gustavsonSpmspm(p.a, p.b);
    return p;
}

namespace
{

struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    bytes(const void* p, std::size_t n)
    {
        const auto* c = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ c[i]) * 1099511628211ull;
    }
    void str(const std::string& s) { bytes(s.data(), s.size() + 1); }
    template <typename T>
    void
    pod(T v)
    {
        bytes(&v, sizeof(v));
    }
};

} // namespace

std::uint64_t
digest(const compiler::SimulationResult& r)
{
    Fnv f;
    for (const model::EinsumRecord& rec : r.records) {
        f.str(rec.output);
        f.pod(rec.traceEvents);
        f.pod(rec.traceBatches);
        f.pod(rec.execStats.computeMuls);
        f.pod(rec.execStats.computeAdds);
        f.pod(rec.execStats.leafVisits);
        f.pod(rec.execStats.outputWrites);
        for (const auto& [name, comp] : rec.components) {
            f.str(name);
            for (const auto& [key, value] : comp.counts) {
                f.str(key);
                f.pod(value);
            }
            for (const auto& [pe, load] : comp.perPe) {
                f.pod(pe);
                f.pod(load);
            }
        }
        for (const auto& [tensor, t] : rec.traffic) {
            f.str(tensor);
            f.pod(t.readBytes);
            f.pod(t.writeBytes);
            f.pod(t.poBytes);
        }
    }
    for (const auto& [tensor, t] : r.traffic) {
        f.str(tensor);
        f.pod(t.readBytes);
        f.pod(t.writeBytes);
        f.pod(t.poBytes);
    }
    f.pod(r.perf.totalSeconds);
    f.pod(r.perf.traceEvents);
    f.pod(r.energy.totalJoules);
    return f.h;
}

std::size_t
traceEvents(const compiler::SimulationResult& r)
{
    std::size_t n = 0;
    for (const model::EinsumRecord& rec : r.records)
        n += rec.traceEvents;
    return n;
}

bool
outputMatches(const compiler::SimulationResult& r,
              const compiler::CompiledModel& model,
              const ft::Tensor& reference, bool sharded, bool perturb)
{
    const ft::Tensor& out = r.result(model.spec());
    const double tol = sharded ? 1e-9 : 0.0;
    if (!perturb)
        return out.equals(reference, tol);
    // Self-test: the same comparison against a copy with one value
    // changed must fail.
    ft::Tensor bad = reference.clone();
    bool done = false;
    std::vector<ft::Coord> point;
    bad.forEachLeaf([&](std::span<const ft::Coord> p, ft::Value) {
        if (!done) {
            point.assign(p.begin(), p.end());
            done = true;
        }
    });
    if (done)
        bad.set(point, bad.at(point) + 1.0);
    return out.equals(bad, tol);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double idx = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (const double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    double kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return kb / 1024.0;
}

void
Report::metric(const std::string& name, double value,
               const std::string& unit, std::size_t samples)
{
    std::lock_guard<std::mutex> lk(mutex_);
    metrics_[name] = Entry{value, unit, samples};
}

void
Report::attempt(bool ok, const std::string& what)
{
    std::lock_guard<std::mutex> lk(mutex_);
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failed_ <= 5)
            std::cerr << "perfbench: FAILED " << what << "\n";
    }
}

void
Report::print(const Options& opts) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    for (const auto& [name, e] : metrics_) {
        std::printf("# %-14s %-34s %16.6f %-6s n=%zu\n",
                    opts.phase.c_str(), name.c_str(), e.value,
                    e.unit.c_str(), e.samples);
    }
    std::string json = "{\"phase\":\"" + opts.phase +
                       "\",\"attempted\":" + std::to_string(attempted_) +
                       ",\"failed\":" + std::to_string(failed_) +
                       ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, e] : metrics_) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", e.value);
        json += std::string(first ? "" : ",") + "\"" + name +
                "\":{\"value\":" + value + ",\"unit\":\"" + e.unit +
                "\",\"samples\":" + std::to_string(e.samples) + "}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

Tracer&
Tracer::instance()
{
    static Tracer t;
    return t;
}

namespace
{
thread_local std::vector<int> t_open;
} // namespace

int
Tracer::open(const char* name, std::uint64_t request)
{
    const double now =
        std::chrono::duration<double, std::micro>(Clock::now() - origin_)
            .count();
    std::lock_guard<std::mutex> lk(mutex_);
    Span s;
    s.name = name;
    s.startUs = now;
    s.parent = t_open.empty() ? -1 : t_open.back();
    s.request = request;
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size() - 1);
    t_open.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    const double now =
        std::chrono::duration<double, std::micro>(Clock::now() - origin_)
            .count();
    std::lock_guard<std::mutex> lk(mutex_);
    spans_[static_cast<std::size_t>(index)].endUs = now;
    if (!t_open.empty() && t_open.back() == index)
        t_open.pop_back();
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<double> childUs(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0)
            childUs[static_cast<std::size_t>(s.parent)] +=
                s.endUs - s.startUs;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        out[layer] += (s.endUs - s.startUs - childUs[i]) / 1e3;
    }
    return out;
}

void
Tracer::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    std::ofstream os(path);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                      "\"dur\":%.3f",
                      s.startUs, s.endUs - s.startUs);
        os << "{\"name\":\"" << s.name << "\"," << buf
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request << "}}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
}

const std::vector<std::string>&
tracedLayers()
{
    static const std::vector<std::string> layers{
        "bench",    "workloads", "storage", "baselines", "compiler",
        "ir",       "pipeline",  "exec",    "perf",      "energy",
        "analytic", "tuner",     "serve"};
    return layers;
}

void
reportSelfTimes(Report& report, const Options& opts)
{
    Tracer& t = Tracer::instance();
    const std::map<std::string, double> self = t.selfMsByLayer();
    for (const std::string& layer : tracedLayers()) {
        const auto it = self.find(layer);
        report.metric("self_ms." + layer,
                      it == self.end() ? 0.0 : it->second, "ms", 1);
    }
    std::filesystem::create_directories(opts.workDir);
    t.write(opts.workDir + "/spans-" + opts.phase + "-" + opts.dataset +
            "-" + std::to_string(opts.seed) + ".json");
}

} // namespace perfbench
