#include "src/cluster/agglomerative.h"

#include <algorithm>
#include <cmath>
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

} // namespace

Dendrogram
agglomerate(const linalg::Matrix &points, Linkage linkage,
            linalg::Metric metric)
{
    HM_REQUIRE(points.rows() >= 1, "agglomerate: no points");
    if (linkage == Linkage::Ward) {
        HM_REQUIRE(metric == linalg::Metric::Euclidean,
                   "agglomerate: ward linkage requires the Euclidean "
                   "metric");
    }
    return agglomerateFromDistances(linalg::pairwiseDistances(points,
                                                              metric),
                                    linkage);
}

Dendrogram
agglomerateFromDistances(linalg::Matrix distances, Linkage linkage)
{
    const std::size_t n = distances.rows();
    HM_REQUIRE(n >= 1 && distances.cols() == n,
               "agglomerateFromDistances: matrix is " << distances.rows()
                                                      << "x"
                                                      << distances.cols());
    // Slot c holds the cluster with node id node_id[c]; a merge keeps
    // the lower slot and retires the higher one. `work` is the input
    // with its upper triangle mirrored over the lower one, exactly
    // symmetric, so a merge reads rows bi and bj contiguously.
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

    if (n == 1)
        return Dendrogram(1, {});

    std::vector<std::size_t> node_id(n);
    std::vector<std::size_t> size(n, 1);
    std::vector<char> alive(n, 1);
    for (std::size_t i = 0; i < n; ++i)
        node_id[i] = i;

    // nn[i]: the live slot j > i with the smallest key for (i, j), or
    // n when row i has no live partner (or is retired); nn_key[i] is
    // that key. Every live pair sits in the row of its lower slot.
    std::vector<std::size_t> nn(n, n);
    std::vector<PairKey> nn_key(n);
    const auto rescan = [&](std::size_t i) {
        const double *row = work.rowData(i);
        const std::size_t id = node_id[i];
        std::size_t best_j = n;
        PairKey best;
        for (std::size_t j = i + 1; j < n; ++j) {
            if (!alive[j] || (best_j != n && row[j] > best.height))
                continue;
            const auto [lo, hi] = std::minmax(id, node_id[j]);
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

    std::vector<Merge> merges;
    merges.reserve(n - 1);

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
        const std::size_t size_i = size[bi];
        const std::size_t size_j = size[bj];
        merges.push_back(Merge{best.lo, best.hi, best.height,
                               size_i + size_j});

        // The merged cluster takes slot bi and the newest node id;
        // retire bj.
        const std::size_t merged_id = n + step;
        size[bi] = size_i + size_j;
        node_id[bi] = merged_id;
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
            const double d = mergedDistance(linkage, size_i, size_j, size[k],
                                            row_i[k], row_j[k],
                                            best.height);
            row_i[k] = d;
            work(k, bi) = d;
            if (nn[k] == bi || nn[k] == bj) {
                rescan(k);
            } else if (k < bi) {
                const PairKey key{d, node_id[k], merged_id};
                if (key < nn_key[k]) {
                    nn[k] = bi;
                    nn_key[k] = key;
                }
            }
        }
        rescan(bi);
    }
    return Dendrogram(n, std::move(merges));
}

} // namespace cluster
} // namespace hiermeans
