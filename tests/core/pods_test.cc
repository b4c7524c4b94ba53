// pod_spec / partition invariants: disjoint, covering, stable ids.
#include "core/pods.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "test_fixtures.h"

namespace mistral::core {
namespace {

struct PodsTest : ::testing::Test {
    cluster::cluster_model model = test_support::make_model(8, 2);
};

TEST_F(PodsTest, AcceptsDisjointCoveringPods) {
    partition p(model, {{0, {0, 1, 2}}, {1, {3, 4, 5}}, {2, {6, 7}}});
    EXPECT_EQ(p.size(), 3u);
    for (std::size_t h = 0; h < 8; ++h) {
        const std::size_t owner = p.pod_of_host(h);
        const auto& hosts = p.pod(owner).hosts;
        EXPECT_NE(std::find(hosts.begin(), hosts.end(), h), hosts.end())
            << "host " << h << " not listed by its owner pod " << owner;
    }
}

TEST_F(PodsTest, RejectsOverlapGapsAndBadIds) {
    // Overlap: host 2 in two pods.
    EXPECT_THROW(partition(model, {{0, {0, 1, 2}}, {1, {2, 3, 4, 5, 6, 7}}}),
                 invariant_error);
    // Gap: host 7 unowned.
    EXPECT_THROW(partition(model, {{0, {0, 1, 2, 3}}, {1, {4, 5, 6}}}),
                 invariant_error);
    // Out of range.
    EXPECT_THROW(partition(model, {{0, {0, 1, 2, 3, 4, 5, 6, 7, 8}}}),
                 invariant_error);
    // Non-sequential ids (identity must be stable: journal/metric names key
    // on it).
    EXPECT_THROW(partition(model, {{1, {0, 1, 2, 3}}, {0, {4, 5, 6, 7}}}),
                 invariant_error);
    // Empty pod, empty partition.
    EXPECT_THROW(partition(model, {{0, {0, 1, 2, 3, 4, 5, 6, 7}}, {1, {}}}),
                 invariant_error);
    EXPECT_THROW(partition(model, {}), invariant_error);
}

TEST_F(PodsTest, UniformPartitionCoversWithNearEqualRuns) {
    const auto p = uniform_partition(model, 3);
    ASSERT_EQ(p.size(), 3u);
    // 8 hosts over 3 pods: 3, 3, 2 — contiguous runs.
    EXPECT_EQ(p.pod(0).hosts, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(p.pod(1).hosts, (std::vector<std::size_t>{3, 4, 5}));
    EXPECT_EQ(p.pod(2).hosts, (std::vector<std::size_t>{6, 7}));
    EXPECT_THROW(uniform_partition(model, 0), invariant_error);
    EXPECT_THROW(uniform_partition(model, 9), invariant_error);
}

TEST_F(PodsTest, AssignAppsFollowsPlacementsAndRejectsStraddlers) {
    partition p(model, {{0, {0, 1, 2, 3}}, {1, {4, 5, 6, 7}}});
    cluster::configuration c(model.vm_count(), model.host_count());
    for (std::int32_t h = 0; h < 8; ++h) c.set_host_power(host_id{h}, true);
    for (std::size_t t = 0; t < 3; ++t) {
        c.deploy(model.tier_vms(app_id{0}, t)[0], host_id{1}, 0.2);
        c.deploy(model.tier_vms(app_id{1}, t)[0], host_id{5}, 0.2);
    }
    EXPECT_EQ(assign_apps(model, p, c), (std::vector<std::size_t>{0, 1}));

    // An app straddling pods is a hard error: the sharded coordinator needs
    // pod-contained apps (the migration broker moves them whole).
    c.undeploy(model.tier_vms(app_id{1}, 0)[0]);
    c.deploy(model.tier_vms(app_id{1}, 0)[0], host_id{2}, 0.2);
    EXPECT_THROW(assign_apps(model, p, c), invariant_error);

    // Undeployed apps land in pod 0.
    cluster::configuration empty(model.vm_count(), model.host_count());
    EXPECT_EQ(assign_apps(model, p, empty), (std::vector<std::size_t>{0, 0}));
}

}  // namespace
}  // namespace mistral::core
