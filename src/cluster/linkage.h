/**
 * @file
 * Cluster-to-cluster distance definitions (linkage criteria).
 *
 * The paper chooses complete linkage: "we chose it to be the distance
 * of the furthest pair of points from each cluster,
 * d(w_i, w_j) = max_{x in w_i, y in w_j} d(x, y)". The other criteria
 * support the linkage ablation study.
 *
 * After clusters i and j merge, mergedDistance() gives the distance from
 * every other cluster k to i+j without revisiting the raw points.
 * Complete and single linkage take the exact max / min of d(k,i) and
 * d(k,j), so every merge height is one of the input point distances,
 * bit for bit. Average, weighted and Ward use the Lance-Williams
 * recurrence:
 *
 *   d(k, i+j) = a_i d(k,i) + a_j d(k,j) + b d(i,j) + g |d(k,i) - d(k,j)|
 *
 * (In floating point the recurrence's complete/single coefficients can
 * land an ulp away from the max / min, which is why those two do not
 * use it.)
 */

#ifndef HIERMEANS_CLUSTER_LINKAGE_H
#define HIERMEANS_CLUSTER_LINKAGE_H

#include <cstddef>
#include <string>

namespace hiermeans {
namespace cluster {

/** Supported linkage criteria. */
enum class Linkage
{
    Single,   ///< nearest pair.
    Complete, ///< furthest pair — the paper's choice.
    Average,  ///< unweighted average (UPGMA).
    Weighted, ///< weighted average (WPGMA).
    Ward,     ///< minimum variance (requires Euclidean distances).
};

/** Name of a linkage ("complete", ...). */
const char *linkageName(Linkage linkage);

/** Parse a linkage name; throws InvalidArgument on unknown names. */
Linkage parseLinkage(const std::string &name);

/** Lance-Williams coefficients for one merge. */
struct LanceWilliams
{
    double alphaI = 0.0;
    double alphaJ = 0.0;
    double beta = 0.0;
    double gamma = 0.0;
};

/**
 * Coefficients for merging clusters of sizes @p size_i and @p size_j
 * when updating the distance to a cluster of size @p size_k.
 */
LanceWilliams lanceWilliams(Linkage linkage, std::size_t size_i,
                            std::size_t size_j, std::size_t size_k);

/**
 * Apply the recurrence: new distance from cluster k to the merged
 * cluster (i+j), given the three pre-merge distances.
 */
double updateDistance(const LanceWilliams &lw, double d_ki, double d_kj,
                      double d_ij);

/**
 * Distance from cluster k to the merged cluster (i+j): exact
 * std::max / std::min of @p d_ki and @p d_kj for complete / single
 * linkage, the Lance-Williams recurrence for the other criteria.
 */
double mergedDistance(Linkage linkage, std::size_t size_i,
                      std::size_t size_j, std::size_t size_k, double d_ki,
                      double d_kj, double d_ij);

/**
 * True when the linkage guarantees monotonically non-decreasing merge
 * heights (no dendrogram inversions). Holds for all five criteria we
 * implement; exposed so tests can assert it.
 */
bool isMonotone(Linkage linkage);

} // namespace cluster
} // namespace hiermeans

#endif // HIERMEANS_CLUSTER_LINKAGE_H
