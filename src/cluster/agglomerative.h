/**
 * @file
 * Agglomerative hierarchical clustering (Section III-B of the paper).
 *
 * "In the beginning, the algorithm assigns each point a cluster. At
 * each iteration the closest pair of clusters are merged to create a
 * new cluster, reducing the number of clusters by one each time. The
 * algorithm proceeds until all the points result in a single cluster."
 *
 * Merge order. Live pairs are ordered exactly by (height, min node id,
 * max node id): the lowest pair merges first, and equal heights go to
 * the smaller node-id pair. Leaves are nodes 0..n-1 and merge s creates
 * node n+s, so the order is total and results are fully deterministic.
 * Heights are compared as doubles with no tolerance; complete and
 * single linkage merge with exact max / min (see linkage.h), so equal
 * input distances stay equal heights and tie exactly.
 *
 * Algorithm. The generic nearest-neighbour-cache algorithm (Muellner
 * 2011, as in fastcluster): each live slot i caches its best partner
 * among live slots j > i. A merge takes the smallest cached key in one
 * pass over the rows, updates the distances to the merged cluster,
 * rescans the merged row and every row whose cached partner was one of
 * the two merged slots, and checks each other row's new pair against
 * its cached key. That is O(n^2) time on typical inputs (O(n^3) worst
 * case, when many rows cache the same partner) and O(n^2) memory for
 * the distance matrix.
 *
 * Identical rows. Under complete and single linkage with the Euclidean,
 * squared Euclidean, Manhattan or Chebyshev metric, identical rows are
 * at distance exactly 0 and a merged distance is an exact max / min, so
 * agglomerate() clusters each set of identical rows as one point: SOM
 * grid positions, for instance, occupy at most rows x cols cells however
 * many workloads map onto them. It groups the rows with a lexicographic
 * sort and emits the height-0 merges without a distance matrix. Inside a
 * group every pair ties at (0, min id, max id), so the group's two
 * lowest live ids merge first and the new node, the newest id, joins
 * the back of the group's FIFO queue; across groups, the queue with the
 * lowest front id merges next. The loop above then runs on the m
 * distinct rows, each starting as its group's final node, with new ids
 * from n + (n - m). The merge list is bit-identical to clustering the
 * rows one by one. If two distinct rows are at distance 0 or infinity
 * (a squared subnormal difference underflows, a huge one overflows),
 * the rows are clustered one by one. Average, weighted and Ward linkage
 * and the cosine metric always cluster the rows one by one.
 */

#ifndef HIERMEANS_CLUSTER_AGGLOMERATIVE_H
#define HIERMEANS_CLUSTER_AGGLOMERATIVE_H

#include "src/cluster/dendrogram.h"
#include "src/cluster/linkage.h"
#include "src/linalg/distance.h"
#include "src/linalg/matrix.h"

namespace hiermeans {
namespace cluster {

/**
 * Cluster the rows of @p points (identical rows as one point where the
 * merge list allows it; see above).
 *
 * @param points n x d observations (n >= 1), every coordinate finite;
 *        a NaN or infinite coordinate throws InvalidArgument.
 * @param linkage cluster-to-cluster distance criterion.
 * @param metric point-to-point distance (the paper uses Euclidean).
 */
Dendrogram agglomerate(const linalg::Matrix &points,
                       Linkage linkage = Linkage::Complete,
                       linalg::Metric metric = linalg::Metric::Euclidean);

/**
 * Cluster from a precomputed symmetric pairwise distance matrix with a
 * zero diagonal. Useful when distances come from a non-vector source.
 * The entries above the diagonal are used; those below must agree with
 * them within 1e-12. The matrix is taken by value and becomes the
 * working matrix, so a caller that passes an rvalue saves an n x n copy.
 */
Dendrogram agglomerateFromDistances(linalg::Matrix distances,
                                    Linkage linkage = Linkage::Complete);

} // namespace cluster
} // namespace hiermeans

#endif // HIERMEANS_CLUSTER_AGGLOMERATIVE_H
