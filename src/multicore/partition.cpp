/**
 * @file
 * Contiguous (pipeline) and LPT partitioner implementations.
 */
#include "multicore/partition.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "support/diagnostics.h"

namespace macross::multicore {

namespace {

/**
 * A core is added only when it cuts the modeled bottleneck to at most
 * this fraction of the best plan with fewer cores.
 */
constexpr double kMinGain = 0.9;

void
checkInputs(const graph::FlatGraph& g,
            const std::vector<double>& actor_cycles, int cores)
{
    fatalIf(cores < 1, "partition over zero cores");
    fatalIf(actor_cycles.size() != g.actors.size(),
            "actor cycle vector size mismatch");
}

void
countCommWords(const graph::FlatGraph& g, const schedule::Schedule& s,
               Partition& p)
{
    for (std::size_t i = 0; i < g.tapes.size(); ++i) {
        if (p.crossing(g.tapes[i]))
            p.commWords += steadyTapeWords(g, s, static_cast<int>(i));
    }
}

} // namespace

std::int64_t
steadyTapeWords(const graph::FlatGraph& g, const schedule::Schedule& s,
                int tape_id)
{
    const graph::TapeDesc& t = g.tapes[tape_id];
    return s.reps[t.src] * g.actor(t.src).pushRate(t.srcPort);
}

Partition
partitionGreedy(const graph::FlatGraph& g, const schedule::Schedule& s,
                const std::vector<double>& actor_cycles, int cores)
{
    checkInputs(g, actor_cycles, cores);
    const CommModel comm;
    const int n = static_cast<int>(s.order.size());
    fatalIf(n != static_cast<int>(g.actors.size()),
            "schedule order does not cover the graph");

    // Positions in the schedule order, prefix sums of their loads, and
    // each position's tapes as (other endpoint's position, words).
    std::vector<int> pos(g.actors.size());
    std::vector<double> prefix(n + 1, 0.0);
    for (int i = 0; i < n; ++i) {
        pos[s.order[i]] = i;
        prefix[i + 1] = prefix[i] + actor_cycles[s.order[i]];
    }
    std::vector<std::vector<std::pair<int, std::int64_t>>> tapesAt(n);
    for (std::size_t i = 0; i < g.tapes.size(); ++i) {
        const graph::TapeDesc& t = g.tapes[i];
        const std::int64_t w =
            steadyTapeWords(g, s, static_cast<int>(i));
        tapesAt[pos[t.src]].emplace_back(pos[t.dst], w);
        tapesAt[pos[t.dst]].emplace_back(pos[t.src], w);
    }

    // best[k][b]: least bottleneck over cuts of positions [0, b) into k
    // non-empty segments; start[k][b]: where the last of them begins.
    // The segment [a, b) is grown downward from b, so the words of
    // tapes with exactly one endpoint inside it update per tape.
    const int maxCores = std::min(cores, n);
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> best(
        maxCores + 1, std::vector<double>(n + 1, inf));
    std::vector<std::vector<int>> start(maxCores + 1,
                                        std::vector<int>(n + 1, 0));
    best[0][0] = 0.0;
    for (int k = 1; k <= maxCores; ++k) {
        for (int b = k; b <= n; ++b) {
            std::int64_t words = 0;
            for (int a = b - 1; a >= k - 1; --a) {
                for (const auto& [other, w] : tapesAt[a])
                    words += other > a && other < b ? -w : w;
                if (best[k - 1][a] == inf)
                    continue;
                const double cost = std::max(
                    best[k - 1][a],
                    prefix[b] - prefix[a] +
                        0.5 * comm.perWordCycles *
                            static_cast<double>(words));
                if (cost < best[k][b]) {
                    best[k][b] = cost;
                    start[k][b] = a;
                }
            }
        }
    }
    int used = 1;
    for (int k = 2; k <= maxCores; ++k) {
        if (best[used][n] > 0.0 && best[k][n] <= kMinGain * best[used][n])
            used = k;
    }

    Partition p;
    p.cores = used;
    p.requestedCores = cores;
    p.coreOf.assign(g.actors.size(), 0);
    p.coreLoad.assign(used, 0.0);
    for (int k = used, b = n; k >= 1; b = start[k][b], --k) {
        for (int i = start[k][b]; i < b; ++i)
            p.coreOf[s.order[i]] = k - 1;
        p.coreLoad[k - 1] = prefix[b] - prefix[start[k][b]];
    }
    countCommWords(g, s, p);
    return p;
}

Partition
partitionLpt(const graph::FlatGraph& g, const schedule::Schedule& s,
             const std::vector<double>& actor_cycles, int cores)
{
    checkInputs(g, actor_cycles, cores);

    Partition p;
    p.cores = cores;
    p.requestedCores = cores;
    p.coreOf.assign(g.actors.size(), 0);
    p.coreLoad.assign(cores, 0.0);

    // Longest processing time first, deterministic tie-break on id.
    std::vector<int> order(g.actors.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        if (actor_cycles[a] != actor_cycles[b])
            return actor_cycles[a] > actor_cycles[b];
        return a < b;
    });

    for (int id : order) {
        int best = 0;
        for (int c = 1; c < cores; ++c) {
            if (p.coreLoad[c] < p.coreLoad[best])
                best = c;
        }
        p.coreOf[id] = best;
        p.coreLoad[best] += actor_cycles[id];
    }
    countCommWords(g, s, p);
    return p;
}

MulticoreEstimate
estimateMulticore(const graph::FlatGraph& g, const schedule::Schedule& s,
                  const Partition& part, double per_word_cycles,
                  double sync_cycles)
{
    MulticoreEstimate e;
    e.edgeCrossWords.assign(g.tapes.size(), 0);
    std::vector<double> coreTime = part.coreLoad;
    for (std::size_t i = 0; i < g.tapes.size(); ++i) {
        const auto& t = g.tapes[i];
        if (!part.crossing(t))
            continue;
        std::int64_t w = steadyTapeWords(g, s, static_cast<int>(i));
        e.edgeCrossWords[i] = w;
        double words = static_cast<double>(w);
        // Half the per-word cost on each side of the channel.
        coreTime[part.coreOf[t.src]] += words * per_word_cycles * 0.5;
        coreTime[part.coreOf[t.dst]] += words * per_word_cycles * 0.5;
        e.commCycles += words * per_word_cycles;
    }
    e.maxLoad =
        *std::max_element(part.coreLoad.begin(), part.coreLoad.end());
    e.cycles = *std::max_element(coreTime.begin(), coreTime.end()) +
               sync_cycles * (part.cores > 1 ? 1.0 : 0.0);
    return e;
}

} // namespace macross::multicore
