#include "machine.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "common/log.hh"
#include "common/prof.hh"
#include "inject/steer.hh"
#include "sim/shard.hh"

namespace ztx::sim {

Machine::Machine(const MachineConfig &config)
    : cfg_(config),
      hierarchy_(config.topology, config.latency, config.geometry),
      os_(pageTable_)
{
    // Steered (enumeration-mode) execution is exact and serial by
    // definition: force the legacy scheduler so steered results can
    // never depend on host parallelism (litmus verdicts must be
    // byte-identical at any hostThreads setting).
    if (cfg_.steer)
        cfg_.hostThreads = 0;

    unsigned n = cfg_.activeCpus == 0 ? cfg_.topology.numCpus()
                                      : cfg_.activeCpus;
    if (n > cfg_.topology.numCpus())
        ztx_fatal("activeCpus ", n, " exceeds topology capacity ",
                  cfg_.topology.numCpus());

    // Sharded mode: one event queue per core group (the whole chip
    // by default), built before the CPUs so each CPU can bind its
    // shard as its environment. The partition — and hence every
    // defer decision — is a pure function of the configuration and
    // topology, never of hostThreads.
    if (cfg_.hostThreads > 0) {
        shardOfCpu_.assign(n, nullptr);
        const unsigned per_chip = cfg_.topology.coresPerChip();
        const unsigned spc = effectiveShardsPerChip(cfg_);
        const unsigned group_size = (per_chip + spc - 1) / spc;
        for (unsigned c = 0; c * per_chip < n; ++c) {
            for (unsigned g = 0; g < spc; ++g) {
                std::vector<CpuId> members;
                const unsigned first =
                    c * per_chip + g * group_size;
                const unsigned last = std::min(
                    {n, first + group_size, (c + 1) * per_chip});
                for (unsigned i = first; i < last; ++i)
                    members.push_back(i);
                if (members.empty())
                    continue;
                shards_.push_back(
                    std::make_unique<Shard>(*this, c, g, members));
                for (const CpuId id : members)
                    shardOfCpu_[id] = shards_.back().get();
            }
        }
        if (cfg_.shardLocalFastPath)
            hierarchy_.setShardPartition(spc, n);
    }

    cpus_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        core::CpuEnv &env =
            cfg_.hostThreads > 0
                ? static_cast<core::CpuEnv &>(*shardOfCpu_[i])
                : static_cast<core::CpuEnv &>(*this);
        cpus_.push_back(std::make_unique<core::Cpu>(
            i, hierarchy_, memory_, pageTable_, os_, env, cfg_.tm,
            cfg_.seed * 0x9e3779b97f4a7c15ULL + i + 1));
    }
    if (cfg_.enableIo) {
        const CpuId agent = cfg_.topology.numCpus() - 1;
        if (n > agent)
            ztx_fatal("enableIo needs the last topology CPU slot "
                      "free (activeCpus <= ",
                      agent, ")");
        io_ = std::make_unique<IoSubsystem>(hierarchy_, memory_,
                                            agent);
    }
    if (cfg_.faults.enabled()) {
        injector_ = std::make_unique<inject::FaultInjector>(
            cfg_.faults, cfg_.seed, hierarchy_, *this);
        for (auto &c : cpus_)
            injector_->attachCpu(*c);
        injector_->setShardedMode(cfg_.hostThreads > 0);
        hierarchy_.setXiDelayProbe(injector_.get());
    }
    readyAt_.assign(n, 0);
    heapKey_.assign(n, ~Cycles(0));
    nextInterrupt_.assign(n, 0);
    if (cfg_.externalInterruptPeriod) {
        // Stagger the timer ticks across CPUs.
        for (unsigned i = 0; i < n; ++i) {
            nextInterrupt_[i] = cfg_.externalInterruptPeriod +
                                (cfg_.externalInterruptPeriod * i) / n;
        }
    }
}

Machine::~Machine() = default;

unsigned
effectiveShardsPerChip(const MachineConfig &config)
{
    if (config.hostThreads == 0)
        return 0; // legacy scheduler: no shard partition
    const unsigned cores = config.topology.coresPerChip();
    unsigned spc = config.hostShardsPerChip;
    if (spc == 0) {
        // Auto: multi-chip topologies already parallelize across
        // chips; a single-chip topology is split into up to four
        // core groups so the parallel phase has work to spread.
        // The cap at four is deliberate: on a 16-core single-chip
        // topology the measured serial fraction climbs from ~2% at
        // one group to ~39% at sixteen (BENCH_scale.json,
        // autosplit-sweep) because each extra group shrinks the
        // per-line home-group hash's eligible share, converting
        // fast-path hits into deferred serial steps.
        spc = config.topology.numChips() > 1
                  ? 1
                  : std::min<unsigned>(cores, 4);
    }
    return std::min(spc, cores);
}

void
Machine::setProgram(CpuId id, const isa::Program *program)
{
    cpu(id).setProgram(program);
    readyAt_.at(id) = now_;
}

void
Machine::setProgramAll(const isa::Program *program)
{
    for (unsigned i = 0; i < numCpus(); ++i)
        setProgram(i, program);
}

bool
Machine::allHalted() const
{
    for (const auto &c : cpus_)
        if (!c->halted())
            return false;
    return true;
}

void
Machine::drainAllStores()
{
    for (const auto &c : cpus_)
        c->drainStores();
}

std::uint64_t
Machine::peekMem(Addr addr, unsigned size)
{
    drainAllStores();
    return memory_.read(addr, size);
}

void
Machine::requestSolo(CpuId cpu_id)
{
    // Millicode instances serialize: requesters queue FIFO; the
    // front of the queue holds solo mode.
    for (const CpuId queued : soloQueue_)
        if (queued == cpu_id)
            return;
    soloQueue_.push_back(cpu_id);
    soloCpu_ = soloQueue_.front();
    soloRequestCounter_.inc();
}

void
Machine::releaseSolo(CpuId cpu_id)
{
    std::erase(soloQueue_, cpu_id);
    soloCpu_ = soloQueue_.empty() ? invalidCpu : soloQueue_.front();
}

Cycles
Machine::run(Cycles max_cycles)
{
    if (cfg_.steer)
        return runSteered(max_cycles);
    return cfg_.hostThreads == 0 ? runLegacy(max_cycles)
                                 : runSharded(max_cycles);
}

Cycles
Machine::runLegacy(Cycles max_cycles)
{
    const Cycles start = now_;
    const bool bounded = max_cycles != ~Cycles(0);
    const Cycles end_cycle =
        bounded ? start + max_cycles : ~Cycles(0);

    using HeapEntry = std::pair<Cycles, CpuId>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        heap;
    for (unsigned i = 0; i < numCpus(); ++i)
        if (!cpus_[i]->halted())
            heap.push({readyAt_[i], i});

    // (Re-)arm the forward-progress watchdog for this run call.
    if (cfg_.watchdogCycles != 0) {
        lastProgressAt_ = now_;
        lastProgressSum_ = progressSum();
    }

    // The CPU just stepped is held out of the heap. Each pick takes
    // the minimum of the heap top and the held entry, i.e. the
    // minimum of the same set the heap alone would hold, so the step
    // order is unchanged; a CPU that is still the minimum (zero-cost
    // steps, a leader) runs again without a push/pop pair.
    HeapEntry held;
    bool holding = false;
    while (holding || !heap.empty()) {
        HeapEntry pick;
        if (holding && (heap.empty() || !(heap.top() < held))) {
            pick = held;
        } else {
            if (holding)
                heap.push(held);
            pick = heap.top();
            heap.pop();
        }
        holding = false;
        const auto [t, id] = pick;
        if (t != readyAt_[id] || cpus_[id]->halted())
            continue; // stale entry

        // Solo mode: park everyone but the solo CPU. A halted
        // holder releases automatically (safety).
        if (soloCpu_ != invalidCpu && id != soloCpu_) {
            if (cpus_[soloCpu_]->halted()) {
                releaseSolo(soloCpu_);
            } else {
                // Small per-CPU jitter disperses the wake-up herd
                // when the holder releases.
                readyAt_[id] = std::max(readyAt_[soloCpu_], t) + 1 +
                               (id & 7);
                heap.push({readyAt_[id], id});
                continue;
            }
        }

        now_ = std::max(now_, t);
        if (now_ >= end_cycle) {
            heap.push({readyAt_[id], id});
            now_ = end_cycle;
            break;
        }

        // Channel (I/O) traffic interleaves with CPU steps.
        while (io_ && !io_->idle() && ioReadyAt_ <= now_) {
            const Cycles io_cost = io_->pump();
            ioReadyAt_ =
                std::max(ioReadyAt_, now_) +
                std::max<Cycles>(io_cost, 1);
        }

        if (cfg_.externalInterruptPeriod &&
            now_ >= nextInterrupt_[id]) {
            cpus_[id]->deliverExternalInterrupt();
            extDeliveredCounter_.inc();
            // A CPU parked for many periods (e.g. behind solo mode,
            // or stalled on a long interrupt-service penalty) must
            // not receive the missed ticks as a back-to-back burst:
            // skip past every period boundary already behind us so
            // at most one interrupt is delivered per period.
            const Cycles period = cfg_.externalInterruptPeriod;
            nextInterrupt_[id] += period;
            if (nextInterrupt_[id] <= now_) {
                const Cycles missed =
                    (now_ - nextInterrupt_[id]) / period + 1;
                extSkippedCounter_.inc(missed);
                nextInterrupt_[id] += missed * period;
            }
        }

        if (injector_)
            injector_->beforeStep(id, now_);

        stepCounter_.inc();
        Cycles cost = cpus_[id]->step();
        cost += cpus_[id]->consumePendingStall();
        // Zero-cost steps model superscalar grouping; the CPU's
        // dispatch credit bounds how many occur per cycle.
        readyAt_[id] = now_ + cost;
        if (!cpus_[id]->halted()) {
            held = {readyAt_[id], id};
            holding = true;
        }

        if (cfg_.watchdogCycles != 0) {
            // O(1) per step: commits/region-closes/halts bump
            // progressTicks_ via noteProgress(); channel transfers
            // count through io_->completed().
            const std::uint64_t sum = progressSum();
            if (sum != lastProgressSum_) {
                lastProgressSum_ = sum;
                lastProgressAt_ = now_;
            } else if (now_ - lastProgressAt_ >=
                       cfg_.watchdogCycles) {
                fireWatchdog();
                break;
            }
        }
    }
    return now_ - start;
}

Cycles
Machine::runSteered(Cycles max_cycles)
{
    const Cycles start = now_;
    const bool bounded = max_cycles != ~Cycles(0);
    const Cycles end_cycle =
        bounded ? start + max_cycles : ~Cycles(0);

    std::vector<CpuId> runnable;
    runnable.reserve(numCpus());
    while (true) {
        // A halted solo holder releases automatically (safety),
        // exactly as in the legacy scheduler.
        while (soloCpu_ != invalidCpu && cpus_[soloCpu_]->halted())
            releaseSolo(soloCpu_);

        runnable.clear();
        if (soloCpu_ != invalidCpu) {
            runnable.push_back(soloCpu_);
        } else {
            for (unsigned i = 0; i < numCpus(); ++i)
                if (!cpus_[i]->halted())
                    runnable.push_back(i);
        }
        if (runnable.empty())
            break;

        const CpuId id = cfg_.steer->choose(runnable);
        if (id == invalidCpu)
            break; // steer-requested stop (frontier cap)
        if (id >= numCpus() || cpus_[id]->halted() ||
            (soloCpu_ != invalidCpu && id != soloCpu_))
            ztx_fatal("steer chose unrunnable CPU ", id);

        // Time advances monotonically: stepping a CPU whose ready
        // time is in the future drags `now` forward; stepping one
        // that was ready in the past costs nothing extra. Cycle
        // values are therefore schedule-dependent in steered mode —
        // only the step order is the enumeration's contract.
        now_ = std::max(now_, readyAt_[id]);
        if (now_ >= end_cycle) {
            now_ = end_cycle;
            break;
        }

        while (io_ && !io_->idle() && ioReadyAt_ <= now_) {
            const Cycles io_cost = io_->pump();
            ioReadyAt_ = std::max(ioReadyAt_, now_) +
                         std::max<Cycles>(io_cost, 1);
        }

        if (cfg_.externalInterruptPeriod &&
            now_ >= nextInterrupt_[id]) {
            cpus_[id]->deliverExternalInterrupt();
            extDeliveredCounter_.inc();
            const Cycles period = cfg_.externalInterruptPeriod;
            nextInterrupt_[id] += period;
            if (nextInterrupt_[id] <= now_) {
                const Cycles missed =
                    (now_ - nextInterrupt_[id]) / period + 1;
                extSkippedCounter_.inc(missed);
                nextInterrupt_[id] += missed * period;
            }
        }

        // Evaluated before *every* steered step, so scripted
        // scenario triggers fire exactly at enumeration decision
        // points (see inject/steer.hh).
        if (injector_)
            injector_->beforeStep(id, now_);

        stepCounter_.inc();
        Cycles cost = cpus_[id]->step();
        cost += cpus_[id]->consumePendingStall();
        readyAt_[id] = now_ + cost;
    }
    return now_ - start;
}

Cycles
Machine::runSharded(Cycles max_cycles)
{
    const Cycles start = now_;
    const bool bounded = max_cycles != ~Cycles(0);
    const Cycles end_cycle =
        bounded ? start + max_cycles : ~Cycles(0);
    // Whole-chip shards with the fast path resolve every intra-chip
    // interaction inside the parallel phase, so their quantum only
    // has to bound cross-chip visibility. Sub-chip shards (and runs
    // with the fast path disabled) still defer some same-chip
    // traffic and keep the tighter all-paths bound.
    const Cycles quantum =
        cfg_.shardLocalFastPath && effectiveShardsPerChip(cfg_) == 1
            ? cfg_.latency.minCrossChipLatency()
            : cfg_.latency.minFabricLatency();

    for (auto &sh : shards_)
        sh->beginRun();
    lastIoAt_ = now_;

    if (cfg_.watchdogCycles != 0) {
        lastProgressAt_ = now_;
        lastProgressSum_ = progressSum();
    }

    // Persistent worker pool for this run call. Only spun up when
    // more than one host thread can actually be used; the 1-thread
    // (and 1-shard) case runs the quanta inline, and is the
    // bit-identical reference for every other thread count.
    const unsigned workers =
        std::min<unsigned>(cfg_.hostThreads,
                           unsigned(shards_.size()));
    struct Gate
    {
        std::mutex m;
        std::condition_variable cv;
        unsigned count = 0;
        std::uint64_t generation = 0;
        const unsigned parties;
        explicit Gate(unsigned p) : parties(p) {}
        void arriveAndWait()
        {
            std::unique_lock lock(m);
            const std::uint64_t gen = generation;
            if (++count == parties) {
                count = 0;
                ++generation;
                cv.notify_all();
            } else {
                cv.wait(lock,
                        [&] { return generation != gen; });
            }
        }
    };
    Gate start_gate(workers + 1), end_gate(workers + 1);
    Cycles pool_q_end = 0;
    bool pool_stop = false;
    std::vector<std::thread> pool;
    if (workers > 1) {
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([this, w, workers, &start_gate,
                               &end_gate, &pool_q_end,
                               &pool_stop] {
                while (true) {
                    start_gate.arriveAndWait();
                    if (pool_stop)
                        return;
                    // Static strided shard assignment: which host
                    // thread runs a shard never affects results.
                    for (std::size_t s = w; s < shards_.size();
                         s += workers)
                        shards_[s]->runQuantum(pool_q_end);
                    end_gate.arriveAndWait();
                }
            });
        }
    }

    enum class Exit { Natural, Bounded, Watchdog };
    Exit exit_kind = Exit::Natural;
    Cycles q_start = now_;
    while (true) {
        // Earliest pending work across shards and the channel.
        Cycles next_ev = ~Cycles(0);
        for (const auto &sh : shards_)
            next_ev = std::min(next_ev, sh->nextEventTime());
        if (io_ && !io_->idle())
            next_ev = std::min(next_ev,
                               std::max(ioReadyAt_, q_start));
        if (next_ev == ~Cycles(0))
            break; // every CPU halted, channel idle
        if (bounded && next_ev >= end_cycle) {
            exit_kind = Exit::Bounded;
            break;
        }
        // Skip empty quanta, staying on the quantum grid so the
        // barrier schedule is a pure function of the event times.
        if (next_ev > q_start)
            q_start += ((next_ev - q_start) / quantum) * quantum;
        const Cycles q_end =
            std::min(q_start + quantum, end_cycle);

        const auto host_t0 = std::chrono::steady_clock::now();
        parallelPhase_ = true;
        // Directory entries may only be created at serial points;
        // the guard turns a fast-path access that escaped its shard
        // into a deterministic panic instead of a silent race.
        hierarchy_.setConcurrentPhase(true);
        {
            ZTX_PROF_SCOPE("sched.parallel");
            if (pool.empty()) {
                runParallel(q_end);
            } else {
                pool_q_end = q_end;
                start_gate.arriveAndWait();
                end_gate.arriveAndWait();
            }
        }
        hierarchy_.setConcurrentPhase(false);
        parallelPhase_ = false;
        const auto host_t1 = std::chrono::steady_clock::now();

        now_ = q_end;
        {
            ZTX_PROF_SCOPE("sched.merge");
            mergeQuantum(q_start, q_end);
        }

        const auto host_t2 = std::chrono::steady_clock::now();
        phaseTimes_.parallelSeconds +=
            std::chrono::duration<double>(host_t1 - host_t0)
                .count();
        phaseTimes_.mergeSeconds +=
            std::chrono::duration<double>(host_t2 - host_t1)
                .count();
        ++phaseTimes_.quanta;

        if (cfg_.watchdogCycles != 0) {
            const std::uint64_t sum = progressSum();
            if (sum != lastProgressSum_) {
                lastProgressSum_ = sum;
                lastProgressAt_ = q_end;
            } else if (q_end - lastProgressAt_ >=
                       cfg_.watchdogCycles) {
                fireWatchdog();
                exit_kind = Exit::Watchdog;
                break;
            }
        }
        q_start = q_end;
    }

    if (!pool.empty()) {
        pool_stop = true;
        start_gate.arriveAndWait();
        for (auto &t : pool)
            t.join();
    }

    if (exit_kind == Exit::Bounded) {
        now_ = end_cycle;
    } else if (exit_kind == Exit::Natural) {
        // Land the clock on the last event actually executed, not
        // the quantum boundary, to match event-driven time.
        Cycles final_t = start;
        for (const auto &sh : shards_)
            final_t = std::max(final_t, sh->lastEventAt_);
        final_t = std::max(final_t, lastIoAt_);
        now_ = std::min(final_t, end_cycle);
    }
    return now_ - start;
}

void
Machine::runParallel(Cycles q_end)
{
    for (auto &sh : shards_)
        sh->runQuantum(q_end);
}

void
Machine::mergeQuantum(Cycles q_start, Cycles q_end)
{
    // 0. Complete the L2 installs the sub-chip fast path parked in
    //    the per-CPU overflow buffers: the real inserts and their
    //    eviction side effects (directory removal, inclusivity
    //    LRU-XI) run here, serially, in cpu-ascending FIFO order,
    //    before any deferred step can observe the caches.
    hierarchy_.drainL2Overflow();

    // 1. Solo-mode arbitration, ordered by (cycle, chip, group,
    //    issue sequence). A halted holder releases automatically,
    //    as in the legacy scheduler.
    struct TaggedSolo
    {
        Cycles at;
        unsigned chip;
        unsigned group;
        std::size_t seq;
        CpuId cpu;
        bool request;
    };
    // Merge scratch comes from the barrier arena: exact-size bump
    // allocations, recycled wholesale at the end of this merge.
    std::size_t n_solo = 0;
    for (const auto &sh : shards_)
        n_solo += sh->soloOps_.size();
    TaggedSolo *solo = mergeArena_.allocArray<TaggedSolo>(n_solo);
    std::size_t solo_k = 0;
    for (auto &sh : shards_) {
        for (std::size_t i = 0; i < sh->soloOps_.size(); ++i) {
            const Shard::SoloOp &op = sh->soloOps_[i];
            solo[solo_k++] = {op.at, sh->chip_, sh->group_, i,
                              op.cpu, op.request};
        }
        sh->soloOps_.clear();
    }
    std::sort(solo, solo + n_solo,
              [](const TaggedSolo &a, const TaggedSolo &b) {
                  return std::tie(a.at, a.chip, a.group, a.seq) <
                         std::tie(b.at, b.chip, b.group, b.seq);
              });
    for (std::size_t i = 0; i < n_solo; ++i) {
        const TaggedSolo &op = solo[i];
        if (op.request)
            requestSolo(op.cpu);
        else
            releaseSolo(op.cpu);
    }
    while (soloCpu_ != invalidCpu && cpus_[soloCpu_]->halted())
        releaseSolo(soloCpu_);

    // 2. Buffered injector events (XI storms, scheduled faults),
    //    merged in (cycle, cpu) order inside the injector.
    if (injector_)
        injector_->flushSharded(q_end);

    // 3. Deferred steps, re-executed serially in (cycle, cpu)
    //    order — equivalent to (cycle, chip, group, cpu) since
    //    shards own contiguous id ranges in chip-major, group-minor
    //    order. A CPU parked behind a freshly granted solo holder
    //    retries next quantum instead.
    struct TaggedStep
    {
        Cycles at;
        CpuId cpu;
    };
    std::size_t n_steps = 0;
    for (const auto &sh : shards_)
        n_steps += sh->deferred_.size();
    TaggedStep *steps = mergeArena_.allocArray<TaggedStep>(n_steps);
    std::size_t step_k = 0;
    for (auto &sh : shards_) {
        for (const Shard::DeferredStep &d : sh->deferred_)
            steps[step_k++] = {d.at, d.cpu};
        sh->deferred_.clear();
    }
    std::sort(steps, steps + n_steps,
              [](const TaggedStep &a, const TaggedStep &b) {
                  return std::tie(a.at, a.cpu) <
                         std::tie(b.at, b.cpu);
              });
    for (std::size_t si = 0; si < n_steps; ++si) {
        const TaggedStep &d = steps[si];
        core::Cpu &c = *cpus_[d.cpu];
        if (c.halted())
            continue;
        Shard &sh = *shardOfCpu_[d.cpu];
        if (soloCpu_ != invalidCpu && d.cpu != soloCpu_) {
            readyAt_[d.cpu] = q_end;
            sh.push(q_end, d.cpu);
            continue;
        }
        sh.curTime_ = d.at;
        sh.lastEventAt_ = std::max(sh.lastEventAt_, d.at);
        stepCounter_.inc();
        stepsDeferredCounter_.inc();
        stepsTotalCounter_.inc();
        Cycles cost = c.step();
        cost += c.consumePendingStall();
        readyAt_[d.cpu] = d.at + cost;
        if (!c.halted())
            sh.push(readyAt_[d.cpu], d.cpu);
    }
    // Solo grants from re-steps: a halted holder still releases.
    while (soloCpu_ != invalidCpu && cpus_[soloCpu_]->halted())
        releaseSolo(soloCpu_);

    // 4. Channel traffic for the window.
    if (io_ && !io_->idle()) {
        Cycles io_now = std::max(ioReadyAt_, q_start);
        while (!io_->idle() && io_now < q_end) {
            const Cycles cost = io_->pump();
            io_now += std::max<Cycles>(cost, 1);
            lastIoAt_ = io_now;
        }
        ioReadyAt_ = io_now;
    }

    // 5. Fold shard deltas into the machine counters, and rewind
    //    the quantum arenas: every deferred-step / solo record and
    //    every merge scratch array is dead past this point, so the
    //    shard arenas and the barrier arena recycle their chunks in
    //    O(1) (no host allocation in a steady-state quantum).
    for (auto &sh : shards_) {
        stepCounter_.inc(sh->steps_);
        stepsLocalCounter_.inc(sh->steps_);
        stepsTotalCounter_.inc(sh->steps_);
        l3LocalHitsCounter_.inc(sh->l3Local_);
        extDeliveredCounter_.inc(sh->extDelivered_);
        extSkippedCounter_.inc(sh->extSkipped_);
        progressTicks_ += sh->progress_;
        sh->steps_ = sh->extDelivered_ = sh->extSkipped_ = 0;
        sh->progress_ = sh->l3Local_ = 0;
        sh->deferred_.release();
        sh->soloOps_.release();
        sh->arena_.reset();
    }
    mergeArena_.reset();
    stats_.counter("scheduler.quanta").inc();
}

void
Machine::fireWatchdog()
{
    watchdogFired_ = true;
    stats_.counter("watchdog.fired").inc();

    Json doc = Json::object();
    doc["kind"] = "ztx.watchdog";
    doc["fired_at_cycle"] = std::uint64_t(now_);
    doc["window_cycles"] = std::uint64_t(cfg_.watchdogCycles);
    doc["solo_holder"] = soloCpu_ == invalidCpu
                             ? std::int64_t(-1)
                             : std::int64_t(soloCpu_);
    Json queue = Json::array();
    for (const CpuId c : soloQueue_)
        queue.push(c);
    doc["solo_queue"] = std::move(queue);

    Json cpu_diags = Json::array();
    for (const auto &c : cpus_)
        cpu_diags.push(c->diagnosticJson());
    doc["cpus"] = std::move(cpu_diags);
    if (injector_) {
        doc["inject"] = injector_->stats().toJson();
        doc["fault_plan"] = inject::faultPlanJson(cfg_.faults);
        // What the injector actually did, and most recently: the
        // first question a stall diagnosis asks is "was the chaos
        // plan firing, and at whom".
        doc["inject_fired"] = injector_->firedCountsJson();
        doc["inject_recent"] = injector_->recentFiresJson();
    }
    watchdogReport_ = std::move(doc);

    ztx_warn("forward-progress watchdog fired at cycle ", now_,
             ": no commit/region/halt for ", cfg_.watchdogCycles,
             " cycles (livelock); see Machine::watchdogReport()");
}

IoSubsystem &
Machine::io()
{
    if (!io_)
        ztx_fatal("I/O subsystem not enabled (MachineConfig::"
                  "enableIo)");
    return *io_;
}

void
Machine::drainIo()
{
    if (!io_)
        return;
    while (!io_->idle()) {
        const Cycles cost = io_->pump();
        now_ += std::max<Cycles>(cost, 1);
    }
}

void
Machine::dumpStats(std::ostream &out)
{
    stats_.dump(out);
    hierarchy_.stats().dump(out);
    os_.stats().dump(out);
    if (io_)
        io_->stats().dump(out);
    if (injector_)
        injector_->stats().dump(out);
    for (const auto &c : cpus_)
        c->stats().dump(out);
}

Json
Machine::statsJson() const
{
    Json doc = Json::object();
    doc["kind"] = "ztx.machine.stats";

    Json meta = machineConfigJson(cfg_);
    meta["instantiated_cpus"] = numCpus();
    meta["elapsed_cycles"] = std::uint64_t(now_);
    doc["meta"] = std::move(meta);

    doc["machine"] = stats_.toJson();
    doc["hierarchy"] = hierarchy_.stats().toJson();
    doc["os"] = os_.stats().toJson();
    if (io_)
        doc["io"] = io_->stats().toJson();
    if (injector_)
        doc["inject"] = injector_->stats().toJson();
    if (watchdogFired_)
        doc["watchdog"] = watchdogReport_;

    Json cpu_groups = Json::array();
    for (const auto &c : cpus_)
        cpu_groups.push(c->stats().toJson());
    doc["cpus"] = std::move(cpu_groups);
    return doc;
}

void
Machine::dumpStatsJson(std::ostream &out, int indent) const
{
    statsJson().write(out, indent);
    out << '\n';
}

Json
machineConfigJson(const MachineConfig &config)
{
    Json meta = Json::object();
    meta["seed"] = config.seed;
    meta["active_cpus"] = config.activeCpus;
    meta["external_interrupt_period"] =
        std::uint64_t(config.externalInterruptPeriod);
    meta["io_enabled"] = config.enableIo;
    meta["watchdog_cycles"] = std::uint64_t(config.watchdogCycles);
    // hostThreads is deliberately NOT serialized: stat documents
    // must stay byte-comparable across host-thread counts (the
    // determinism contract of the sharded scheduler). The shard
    // partition and fast-path toggle ARE serialized — they change
    // defer decisions and hence simulated results.
    meta["shards_per_chip"] = effectiveShardsPerChip(config);
    meta["shard_local_fast_path"] = config.shardLocalFastPath;
    if (config.faults.enabled())
        meta["faults"] = inject::faultPlanJson(config.faults);

    Json topo = Json::object();
    topo["cores_per_chip"] = config.topology.coresPerChip();
    topo["chips_per_mcm"] = config.topology.chipsPerMcm();
    topo["mcms"] = config.topology.numMcms();
    topo["total_cpus"] = config.topology.numCpus();
    meta["topology"] = std::move(topo);

    Json tm = Json::object();
    tm["max_nesting_depth"] = config.tm.maxNestingDepth;
    tm["store_cache_entries"] = config.tm.storeCacheEntries;
    tm["xi_reject_abort_threshold"] =
        config.tm.xiRejectAbortThreshold;
    tm["dispatch_width"] = config.tm.dispatchWidth;
    tm["ppa_base_delay"] = std::uint64_t(config.tm.ppaBaseDelay);
    tm["ppa_max_shift"] = config.tm.ppaMaxShift;
    tm["speculative_overmark_prob"] =
        config.tm.speculativeOvermarkProb;
    tm["lru_extension_enabled"] = config.tm.lruExtensionEnabled;
    tm["stiff_arm_enabled"] = config.tm.stiffArmEnabled;
    meta["tm"] = std::move(tm);
    return meta;
}

} // namespace ztx::sim
