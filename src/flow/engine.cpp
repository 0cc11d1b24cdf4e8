#include "flow/engine.hpp"

#include "obs/telemetry.hpp"
#include "util/exec_policy.hpp"
#include "util/json.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

namespace flh {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Per-(design, stage) scheduling state shared by the workers.
struct TaskTable {
    const FlowGraph& graph;
    std::span<const DesignInput> designs;
    std::vector<std::vector<std::size_t>> dep_idx;       ///< stage -> dep stage indices
    std::vector<std::vector<std::size_t>> dependents;    ///< stage -> dependent stage indices
    std::vector<int> pending;                            ///< per task: unfinished deps
    std::vector<StageRecord> records;                    ///< per task

    [[nodiscard]] std::size_t taskId(std::size_t design, std::size_t stage) const noexcept {
        return design * graph.size() + stage;
    }
};

/// Shared counters/gauges (stable addresses, one registry lookup per
/// process).
struct FlowTelemetry {
    obs::Counter& tasks = obs::counter("flow.tasks");
    obs::Counter& hits = obs::counter("flow.cache_hits");
    obs::Counter& misses = obs::counter("flow.cache_misses");
    obs::Counter& failures = obs::counter("flow.stage_failures");
    obs::Gauge& queue_depth = obs::gauge("flow.ready_queue_depth");

    static const FlowTelemetry& get() {
        static const FlowTelemetry t;
        return t;
    }
};

void runTask(TaskTable& tt, std::size_t design, std::size_t stage, FlowCache* cache,
             const FlowOptions& opts) {
    const StageDef& def = tt.graph.stages()[stage];
    const DesignInput& input = tt.designs[design];
    StageRecord& rec = tt.records[tt.taskId(design, stage)];
    rec.design = input.name;
    rec.stage = def.name;

    const FlowTelemetry& tel = FlowTelemetry::get();
    tel.tasks.add(1);
    obs::ScopedSpan task_span(
        obs::enabled() ? input.name + "/" + def.name : std::string(), "flow.stage");

    // Upstream failure poisons the cone without running anything.
    for (const std::size_t d : tt.dep_idx[stage]) {
        const StageRecord& dep = tt.records[tt.taskId(design, d)];
        if (dep.failed) {
            rec.failed = true;
            rec.error = "skipped: upstream stage '" + dep.stage + "' failed";
            tel.failures.add(1);
            return;
        }
    }

    // Cache key: code version + stage identity + design content + dep keys,
    // all length-prefixed (see cache.hpp).
    ContentHasher h;
    h.field(kFlowCodeVersion).field(def.name).field(def.config);
    h.field(input.source).field(input.attrs);
    for (const std::size_t d : tt.dep_idx[stage]) h.field(tt.records[tt.taskId(design, d)].key);
    const CacheKey key = CacheKey::fromHash(h.digest());
    rec.key = key.hex();

    const auto start = Clock::now();
    try {
        if (cache) {
            // Single probe: get() returns the artifact or a miss.
            obs::ScopedSpan probe_span(
                obs::enabled() ? "cache-probe:" + input.name + "/" + def.name
                               : std::string(),
                "flow.cache");
            if (auto hit = cache->get(key)) {
                rec.artifact = std::move(*hit);
                rec.cache_hit = true;
            }
        }
        if (!rec.cache_hit) {
            obs::ScopedSpan run_span(
                obs::enabled() ? "run:" + input.name + "/" + def.name : std::string(),
                "flow.run");
            StageContext ctx(input.name, input.source, input.attrs, opts.sim_threads);
            for (const std::size_t d : tt.dep_idx[stage])
                ctx.addInput(tt.graph.stages()[d].name,
                             &tt.records[tt.taskId(design, d)].artifact);
            rec.artifact = def.run(ctx);
            if (cache) cache->put(key, rec.artifact);
        }
        rec.digest = rec.artifact.digest().hex();
        // Throughput is only meaningful when the work actually ran; a cache
        // replay would otherwise report absurd faults/sec.
        if (!rec.cache_hit && rec.artifact.hasMeta("work_items"))
            rec.work_items = rec.artifact.num("work_items");
        (rec.cache_hit ? tel.hits : tel.misses).add(1);
    } catch (const std::exception& e) {
        rec.failed = true;
        rec.error = e.what();
        tel.failures.add(1);
    }
    rec.wall_ms = msSince(start);
    // Per-stage latency distribution (registry lookup only when recording;
    // stage names are few, so the map stays tiny).
    if (obs::enabled())
        obs::histogram("flow.stage." + def.name + ".wall_ms").record(rec.wall_ms);
}

} // namespace

RunReport runFlow(const FlowGraph& graph, std::span<const DesignInput> designs,
                  const FlowOptions& opts) {
    if (graph.size() == 0) throw std::invalid_argument("runFlow: empty graph");

    TaskTable tt{graph, designs, {}, {}, {}, {}};
    const std::size_t n_stages = graph.size();
    tt.dep_idx.resize(n_stages);
    tt.dependents.resize(n_stages);
    for (std::size_t s = 0; s < n_stages; ++s) {
        for (const std::string& dep : graph.stages()[s].deps) {
            const std::size_t d = graph.indexOf(dep);
            tt.dep_idx[s].push_back(d);
            tt.dependents[d].push_back(s);
        }
    }
    const std::size_t n_tasks = designs.size() * n_stages;
    tt.pending.resize(n_tasks);
    tt.records.resize(n_tasks);

    std::shared_ptr<FlowCache> cache = opts.cache_handle;
    if (!cache && opts.cache.enabled) cache = std::make_shared<FlowCache>(opts.cache);
    FlowCache* cache_ptr = cache.get();

    // Seed the ready queue with all dependency-free tasks, design-major so a
    // small pool starts pipelining early stages of many designs at once.
    std::deque<std::size_t> ready;
    for (std::size_t dsn = 0; dsn < designs.size(); ++dsn) {
        for (std::size_t s = 0; s < n_stages; ++s) {
            const std::size_t t = tt.taskId(dsn, s);
            tt.pending[t] = static_cast<int>(tt.dep_idx[s].size());
            if (tt.pending[t] == 0) ready.push_back(t);
        }
    }

    // Scheduler width through the unified policy: min_items_per_worker = 1
    // clamps the pool to the task count, threads = 0 resolves to hardware.
    const unsigned n_workers = ExecPolicy{opts.threads, 1}.resolveThreads(n_tasks);
    const FlowTelemetry& tel = FlowTelemetry::get();
    tel.queue_depth.set(static_cast<std::int64_t>(ready.size()));

    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;

    // Pulls ready tasks FIFO until every task is done. Worker 0 is the
    // calling thread, so one worker spawns nothing; only spawned threads
    // label their trace lane.
    const auto worker = [&](unsigned worker_id) {
        if (worker_id > 0 && obs::enabled())
            obs::setThreadLabel("flow-worker-" + std::to_string(worker_id));
        obs::ScopedSpan sched_span(
            obs::enabled() ? "schedule:worker-" + std::to_string(worker_id) : std::string(),
            "flow.sched");
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            if (done == n_tasks) return;
            if (ready.empty()) {
                obs::ScopedSpan wait_span(
                    obs::enabled() ? "wait:worker-" + std::to_string(worker_id) : std::string(),
                    "flow.sched");
                cv.wait(lock, [&] { return !ready.empty() || done == n_tasks; });
                continue;
            }
            const std::size_t t = ready.front();
            ready.pop_front();
            tel.queue_depth.set(static_cast<std::int64_t>(ready.size()));
            const std::size_t dsn = t / n_stages;
            const std::size_t s = t % n_stages;
            lock.unlock();
            runTask(tt, dsn, s, cache_ptr, opts);
            lock.lock();
            ++done;
            bool woke_any = false;
            for (const std::size_t dep_s : tt.dependents[s]) {
                if (--tt.pending[tt.taskId(dsn, dep_s)] == 0) {
                    ready.push_back(tt.taskId(dsn, dep_s));
                    woke_any = true;
                }
            }
            tel.queue_depth.set(static_cast<std::int64_t>(ready.size()));
            if (done == n_tasks || woke_any) cv.notify_all();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(n_workers - 1);
    for (unsigned i = 1; i < n_workers; ++i) pool.emplace_back(worker, i);
    worker(0);
    for (std::thread& th : pool) th.join();

    return RunReport(std::string(kFlowCodeVersion), std::move(tt.records), n_workers,
                     opts.sim_threads);
}

// ---- StageRecord -------------------------------------------------------

void StageRecord::writeJson(JsonWriter& w) const {
    w.beginObject();
    w.kv("design", design);
    w.kv("stage", stage);
    w.kv("key", key);
    if (failed) {
        w.kv("error", error);
    } else {
        w.kv("artifact", digest);
        w.key("metrics");
        w.beginObject();
        for (const auto& [k, v] : artifact.meta()) w.kv(k, v);
        w.endObject();
    }
    w.endObject();
}

void StageRecord::writeProfileJson(JsonWriter& w) const {
    w.beginObject();
    w.kv("design", design);
    w.kv("stage", stage);
    w.kv("cache", failed ? "failed" : (cache_hit ? "hit" : "miss"));
    w.kv("wall_ms", wall_ms);
    if (itemsPerSecond() > 0) w.kv("items_per_second", itemsPerSecond());
    w.endObject();
}

// ---- RunReport ---------------------------------------------------------

RunReport::RunReport(std::string code_version, std::vector<StageRecord> records,
                     unsigned threads, unsigned sim_threads)
    : code_version_(std::move(code_version)), records_(std::move(records)), threads_(threads),
      sim_threads_(sim_threads) {
    // Records arrive design-major in input order with stages in graph order;
    // sort by design *name* so the report does not depend on CLI list order.
    std::stable_sort(records_.begin(), records_.end(),
                     [](const StageRecord& a, const StageRecord& b) { return a.design < b.design; });
}

std::size_t RunReport::hits() const noexcept {
    std::size_t n = 0;
    for (const StageRecord& r : records_) n += r.cache_hit ? 1 : 0;
    return n;
}

std::size_t RunReport::misses() const noexcept {
    std::size_t n = 0;
    for (const StageRecord& r : records_) n += (!r.cache_hit && !r.failed) ? 1 : 0;
    return n;
}

std::size_t RunReport::failures() const noexcept {
    std::size_t n = 0;
    for (const StageRecord& r : records_) n += r.failed ? 1 : 0;
    return n;
}

double RunReport::hitRate() const noexcept {
    const std::size_t graded = hits() + misses();
    return graded ? static_cast<double>(hits()) / static_cast<double>(graded) : 0.0;
}

double RunReport::totalWallMs() const noexcept {
    double ms = 0;
    for (const StageRecord& r : records_) ms += r.wall_ms;
    return ms;
}

std::int64_t RunReport::peakTests() const noexcept {
    std::int64_t peak = 0;
    for (const StageRecord& r : records_)
        if (r.artifact.hasMeta("n_tests"))
            peak = std::max<std::int64_t>(peak, r.artifact.integer("n_tests"));
    return peak;
}

std::string RunReport::reportJson() const {
    JsonWriter w;
    w.beginObject();
    w.kv("schema", "flh.flow.report/1");
    w.kv("code_version", code_version_);
    w.key("stages");
    w.beginArray();
    for (const StageRecord& r : records_) r.writeJson(w);
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

std::string RunReport::profileJson() const {
    JsonWriter w;
    w.beginObject();
    w.kv("schema", "flh.flow.profile/1");
    w.kv("threads", static_cast<std::int64_t>(threads_));
    w.kv("sim_threads", static_cast<std::int64_t>(sim_threads_));
    w.kv("tasks", records_.size());
    w.kv("cache_hits", hits());
    w.kv("cache_misses", misses());
    w.kv("failures", failures());
    w.kv("hit_rate", hitRate());
    w.kv("total_wall_ms", totalWallMs());
    w.kv("peak_tests", peakTests());
    w.key("stages");
    w.beginArray();
    for (const StageRecord& r : records_) r.writeProfileJson(w);
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

std::string RunReport::benchJson() const {
    double worked_ms = 0.0;
    double work_items = 0.0;
    for (const StageRecord& r : records_) {
        if (r.work_items > 0 && r.wall_ms > 0) {
            worked_ms += r.wall_ms;
            work_items += r.work_items;
        }
    }
    JsonWriter w;
    w.beginObject();
    w.kv("schema", "flh.bench.flow/1");
    w.kv("threads", static_cast<std::int64_t>(threads_));
    w.kv("sim_threads", static_cast<std::int64_t>(sim_threads_));
    w.kv("tasks", records_.size());
    w.kv("cache_hits", hits());
    w.kv("cache_misses", misses());
    w.kv("total_wall_ms", totalWallMs());
    w.kv("work_items", work_items);
    if (worked_ms > 0) w.kv("items_per_second", work_items / (worked_ms / 1000.0));
    w.key("stages");
    w.beginArray();
    for (const StageRecord& r : records_) r.writeProfileJson(w);
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

TextTable RunReport::table() const {
    TextTable t({"Design", "Stage", "Cache", "Wall ms", "Items/s", "Key"});
    std::string last_design;
    for (const StageRecord& r : records_) {
        if (!last_design.empty() && r.design != last_design) t.addRule();
        last_design = r.design;
        const double ips = r.itemsPerSecond();
        t.addRow({r.design, r.stage, r.failed ? "FAILED" : (r.cache_hit ? "hit" : "miss"),
                  fmt(r.wall_ms, 2), ips > 0 ? fmt(ips, 0) : "-", r.key.substr(0, 12)});
    }
    return t;
}

} // namespace flh
