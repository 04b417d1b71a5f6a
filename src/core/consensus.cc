#include "src/core/consensus.h"

#include <algorithm>
#include <utility>

#include "src/util/error.h"

namespace hiermeans {
namespace core {

linalg::Matrix
coAssociation(const std::vector<scoring::Partition> &partitions)
{
    HM_REQUIRE(!partitions.empty(), "coAssociation: no partitions");
    const std::size_t n = partitions.front().size();
    for (const auto &p : partitions) {
        HM_REQUIRE(p.size() == n, "coAssociation: partition sizes "
                                  "differ ("
                                      << p.size() << " vs " << n << ")");
    }

    linalg::Matrix co(n, n, 0.0);
    for (const auto &p : partitions) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i; j < n; ++j) {
                if (p.label(i) == p.label(j)) {
                    co(i, j) += 1.0;
                    co(j, i) = co(i, j);
                }
            }
        }
    }
    const double total = static_cast<double>(partitions.size());
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            co(i, j) /= total;
    }
    return co;
}

ConsensusResult
consensusCluster(const std::vector<scoring::Partition> &partitions,
                 std::size_t k_min, std::size_t k_max)
{
    const linalg::Matrix co = coAssociation(partitions);
    const std::size_t n = co.rows();
    HM_REQUIRE(k_min >= 1 && k_min <= k_max,
               "consensusCluster: invalid k range [" << k_min << ", "
                                                     << k_max << "]");

    // Distance = disagreement fraction.
    linalg::Matrix dist(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            dist(i, j) = i == j ? 0.0 : 1.0 - co(i, j);
        }
    }

    cluster::Dendrogram dendrogram = cluster::agglomerateFromDistances(
        std::move(dist), cluster::Linkage::Complete);

    std::size_t pairs = 0, unanimous = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            ++pairs;
            if (co(i, j) == 0.0 || co(i, j) == 1.0)
                ++unanimous;
        }
    }

    ConsensusResult result{
        co, std::move(dendrogram), {},
        pairs > 0 ? static_cast<double>(unanimous) /
                        static_cast<double>(pairs)
                  : 1.0};
    result.partitions = result.dendrogram.partitionSweep(
        k_min, std::min(k_max, n));
    return result;
}

} // namespace core
} // namespace hiermeans
