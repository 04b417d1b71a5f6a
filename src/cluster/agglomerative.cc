#include "src/cluster/agglomerative.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <numeric>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "src/util/error.h"

namespace hiermeans {
namespace cluster {

namespace {

/** A live pair in merge order: (height, min node id, max node id). */
struct PairKey
{
    double height = 0.0;
    std::size_t lo = 0;
    std::size_t hi = 0;

    bool operator<(const PairKey &other) const
    {
        return std::tie(height, lo, hi) <
               std::tie(other.height, other.lo, other.hi);
    }
};

/** A cluster: node id and leaf count. */
struct Node
{
    std::size_t id = 0;
    std::size_t size = 0;
};

/**
 * The nearest-neighbour-cache linkage loop. @p work is an exactly
 * symmetric m x m distance matrix (m >= 1, zero diagonal) whose slot c
 * holds the cluster @p slots[c]; merge s of this loop creates node
 * next_id + s. Appends the m - 1 merges to @p merges.
 */
void
linkSlots(linalg::Matrix &work, std::vector<Node> slots,
          std::size_t next_id, Linkage linkage, std::vector<Merge> &merges)
{
    const std::size_t n = work.rows();
    // A merge keeps the lower slot and retires the higher one; `work`
    // is symmetric, so a merge reads rows bi and bj contiguously.
    std::vector<char> alive(n, 1);

    // nn[i]: the live slot j > i with the smallest key for (i, j), or
    // n when row i has no live partner (or is retired); nn_key[i] is
    // that key. Every live pair sits in the row of its lower slot.
    std::vector<std::size_t> nn(n, n);
    std::vector<PairKey> nn_key(n);
    const auto rescan = [&](std::size_t i) {
        const double *row = work.rowData(i);
        const std::size_t id = slots[i].id;
        std::size_t best_j = n;
        PairKey best;
        for (std::size_t j = i + 1; j < n; ++j) {
            if (!alive[j] || (best_j != n && row[j] > best.height))
                continue;
            const auto [lo, hi] = std::minmax(id, slots[j].id);
            const PairKey key{row[j], lo, hi};
            if (best_j == n || key < best) {
                best_j = j;
                best = key;
            }
        }
        nn[i] = best_j;
        nn_key[i] = best;
    };
    for (std::size_t i = 0; i < n; ++i)
        rescan(i);

    for (std::size_t step = 0; step < n - 1; ++step) {
        std::size_t bi = n;
        PairKey best;
        for (std::size_t i = 0; i < n; ++i) {
            if (nn[i] != n && (bi == n || nn_key[i] < best)) {
                bi = i;
                best = nn_key[i];
            }
        }
        HM_ASSERT(bi != n, "agglomerate: no live pair found");
        const std::size_t bj = nn[bi];
        const std::size_t size_i = slots[bi].size;
        const std::size_t size_j = slots[bj].size;
        merges.push_back(Merge{best.lo, best.hi, best.height,
                               size_i + size_j});

        // The merged cluster takes slot bi and the newest node id;
        // retire bj.
        const std::size_t merged_id = next_id + step;
        slots[bi] = Node{merged_id, size_i + size_j};
        alive[bj] = 0;
        nn[bj] = n;

        // Only pairs with bi changed and pairs with bj vanished. Each
        // row cached on either one is rescanned; any other row below bi
        // weighs its new pair with bi against its cached key. Rows above
        // bi cannot cache bi, nor rows above bj cache bj.
        double *row_i = work.rowData(bi);
        const double *row_j = work.rowData(bj);
        for (std::size_t k = 0; k < n; ++k) {
            if (!alive[k] || k == bi)
                continue;
            const double d =
                mergedDistance(linkage, size_i, size_j, slots[k].size,
                               row_i[k], row_j[k], best.height);
            row_i[k] = d;
            work(k, bi) = d;
            if (nn[k] == bi || nn[k] == bj) {
                rescan(k);
            } else if (k < bi) {
                const PairKey key{d, slots[k].id, merged_id};
                if (key < nn_key[k]) {
                    nn[k] = bi;
                    nn_key[k] = key;
                }
            }
        }
        rescan(bi);
    }
}

/**
 * True when identical rows may be clustered as one point: they are at
 * distance exactly 0 under @p metric, and @p linkage merges with an
 * exact max / min, so a group's distance to any cluster is that of
 * any one of its rows.
 */
bool
collapsesIdenticalRows(Linkage linkage, linalg::Metric metric)
{
    return (linkage == Linkage::Complete || linkage == Linkage::Single) &&
           metric != linalg::Metric::Cosine;
}

/**
 * The rows of @p points grouped by value, each group listing its row
 * indices ascending. The order of the groups does not matter: merge
 * order depends on node ids only, not on slots.
 */
std::vector<std::vector<std::size_t>>
identicalRows(const linalg::Matrix &points)
{
    const std::size_t dims = points.cols();
    const auto row_less = [&](std::size_t a, std::size_t b) {
        const double *pa = points.rowData(a);
        const double *pb = points.rowData(b);
        return std::lexicographical_compare(pa, pa + dims, pb, pb + dims);
    };
    std::vector<std::size_t> order(points.rows());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), row_less);
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (i == 0 || row_less(order[i - 1], order[i]))
            groups.emplace_back();
        groups.back().push_back(order[i]);
    }
    return groups;
}

/**
 * Merge each group of identical rows (leaves 0..n-1) into one node at
 * height 0, appending the merges to @p merges; returns each group's
 * final node. Inside a group every pair ties at (0, min id, max id), so
 * its two lowest live ids merge first and the new node, the newest id,
 * joins the back: each group is a FIFO queue. Across groups the queue
 * with the lowest front id merges next.
 */
std::vector<Node>
mergeIdenticalRows(const std::vector<std::vector<std::size_t>> &groups,
                   std::size_t n, std::vector<Merge> &merges)
{
    std::vector<std::deque<Node>> queues(groups.size());
    using Front = std::pair<std::size_t, std::size_t>; // (front id, group)
    std::priority_queue<Front, std::vector<Front>, std::greater<Front>>
        fronts;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (std::size_t leaf : groups[g])
            queues[g].push_back(Node{leaf, 1});
        if (groups[g].size() >= 2)
            fronts.emplace(groups[g].front(), g);
    }
    std::size_t next_id = n;
    while (!fronts.empty()) {
        const std::size_t g = fronts.top().second;
        fronts.pop();
        std::deque<Node> &queue = queues[g];
        const Node a = queue[0];
        const Node b = queue[1];
        merges.push_back(Merge{a.id, b.id, 0.0, a.size + b.size});
        queue.pop_front();
        queue.pop_front();
        queue.push_back(Node{next_id++, a.size + b.size});
        if (queue.size() >= 2)
            fronts.emplace(queue.front().id, g);
    }
    std::vector<Node> roots;
    roots.reserve(queues.size());
    for (const std::deque<Node> &queue : queues)
        roots.push_back(queue.front());
    return roots;
}

} // namespace

Dendrogram
agglomerate(const linalg::Matrix &points, Linkage linkage,
            linalg::Metric metric)
{
    const std::size_t n = points.rows();
    HM_REQUIRE(n >= 1, "agglomerate: no points");
    if (linkage == Linkage::Ward) {
        HM_REQUIRE(metric == linalg::Metric::Euclidean,
                   "agglomerate: ward linkage requires the Euclidean "
                   "metric");
    }
    for (std::size_t r = 0; r < n; ++r) {
        const double *row = points.rowData(r);
        for (std::size_t c = 0; c < points.cols(); ++c)
            HM_REQUIRE(std::isfinite(row[c]),
                       "agglomerate: non-finite coordinate at (" << r << ", "
                                                                 << c << ")");
    }
    const auto one_by_one = [&] {
        return agglomerateFromDistances(
            linalg::pairwiseDistances(points, metric), linkage);
    };
    if (!collapsesIdenticalRows(linkage, metric))
        return one_by_one();

    // Distances between one row of each group. Grouping is exact only
    // if distinct rows are at a positive, finite distance (a squared
    // tiny difference can underflow to 0, a huge one overflow);
    // otherwise cluster the rows one by one.
    const std::vector<std::vector<std::size_t>> groups =
        identicalRows(points);
    const std::size_t m = groups.size();
    linalg::Matrix reps(m, points.cols());
    for (std::size_t g = 0; g < m; ++g)
        std::copy_n(points.rowData(groups[g].front()), points.cols(),
                    reps.rowData(g));
    linalg::Matrix work = linalg::pairwiseDistances(reps, metric);
    for (std::size_t i = 0; i < m; ++i) {
        const double *row = work.rowData(i);
        for (std::size_t j = i + 1; j < m; ++j) {
            if (!(row[j] > 0.0 && std::isfinite(row[j])))
                return one_by_one();
        }
    }

    std::vector<Merge> merges;
    merges.reserve(n - 1);
    linkSlots(work, mergeIdenticalRows(groups, n, merges), n + (n - m),
              linkage, merges);
    return Dendrogram(n, std::move(merges));
}

Dendrogram
agglomerateFromDistances(linalg::Matrix distances, Linkage linkage)
{
    const std::size_t n = distances.rows();
    HM_REQUIRE(n >= 1 && distances.cols() == n,
               "agglomerateFromDistances: matrix is " << distances.rows()
                                                      << "x"
                                                      << distances.cols());
    // Mirror the upper triangle over the lower one so the working
    // matrix is exactly symmetric.
    linalg::Matrix &work = distances;
    for (std::size_t i = 0; i < n; ++i) {
        HM_REQUIRE(work(i, i) == 0.0,
                   "agglomerateFromDistances: nonzero diagonal at " << i);
        for (std::size_t j = i + 1; j < n; ++j) {
            const double d = work(i, j);
            HM_REQUIRE(std::abs(d - work(j, i)) <= 1e-12,
                       "agglomerateFromDistances: asymmetric at (" << i
                                                                   << ", "
                                                                   << j
                                                                   << ")");
            HM_REQUIRE(d >= 0.0,
                       "agglomerateFromDistances: negative distance");
            work(j, i) = d;
        }
    }

    std::vector<Node> leaves(n);
    for (std::size_t i = 0; i < n; ++i)
        leaves[i] = Node{i, 1};
    std::vector<Merge> merges;
    merges.reserve(n - 1);
    linkSlots(work, std::move(leaves), n, linkage, merges);
    return Dendrogram(n, std::move(merges));
}

} // namespace cluster
} // namespace hiermeans
