#include "cluster/model.h"

#include <gtest/gtest.h>

#include "apps/rubis.h"
#include "common/check.h"
#include "test_fixtures.h"

namespace mistral::cluster {
namespace {

using test_support::make_model;

TEST(ClusterModel, UniformHostsNamedAndSized) {
    const auto hosts = uniform_hosts(3, 2048.0);
    ASSERT_EQ(hosts.size(), 3u);
    EXPECT_EQ(hosts[0].name, "host0");
    EXPECT_EQ(hosts[2].name, "host2");
    EXPECT_DOUBLE_EQ(hosts[1].memory_mb, 2048.0);
}

TEST(ClusterModel, InventoryCoversMaxReplication) {
    const auto m = make_model(4, 1);
    // RUBiS: web×1 + app×2 + db×2 = 5 VM slots per application.
    EXPECT_EQ(m.vm_count(), 5u);
    EXPECT_EQ(make_model(4, 2).vm_count(), 10u);
}

TEST(ClusterModel, VmDescriptorsIdentifyAppTierReplica) {
    const auto m = make_model(4, 2);
    const auto& vms = m.tier_vms(app_id{1}, 2);
    ASSERT_EQ(vms.size(), 2u);
    const auto& desc = m.vm(vms[1]);
    EXPECT_EQ(desc.app, app_id{1});
    EXPECT_EQ(desc.tier, 2u);
    EXPECT_EQ(desc.replica_index, 1);
    EXPECT_DOUBLE_EQ(desc.memory_mb, 200.0);
}

TEST(ClusterModel, VmIdsAreDenseAndDistinct) {
    const auto m = make_model(4, 2);
    for (std::size_t i = 0; i < m.vm_count(); ++i) {
        EXPECT_EQ(m.vm(vm_id{static_cast<std::int32_t>(i)}).vm.index(), i);
    }
}

TEST(ClusterModel, TierSpecLookupMatchesApp) {
    const auto m = make_model(4, 2);
    const auto web_vm = m.tier_vms(app_id{0}, 0)[0];
    EXPECT_EQ(m.tier_spec_of(web_vm).name, "web");
}

TEST(ClusterModel, DefaultLimitsMatchPaper) {
    const auto m = make_model(4, 2);
    EXPECT_EQ(m.limits().max_vms_per_host, 4);
    EXPECT_DOUBLE_EQ(m.limits().host_cpu_cap, 0.8);
    EXPECT_DOUBLE_EQ(m.limits().dom0_memory_mb, 200.0);
    EXPECT_DOUBLE_EQ(m.limits().cpu_step, 0.10);
}

TEST(ClusterModel, RejectsBadLookups) {
    const auto m = make_model(4, 2);
    EXPECT_THROW(m.vm(vm_id{}), invariant_error);
    EXPECT_THROW(m.vm(vm_id{1000}), invariant_error);
    EXPECT_THROW(m.app(app_id{5}), invariant_error);
    EXPECT_THROW(m.tier_vms(app_id{0}, 99), invariant_error);
}

TEST(ClusterModel, RejectsEmptyConstruction) {
    std::vector<apps::application_spec> specs;
    specs.push_back(apps::rubis_browsing("r"));
    EXPECT_THROW(cluster_model({}, std::move(specs)), invariant_error);
    EXPECT_THROW(cluster_model(uniform_hosts(2), {}), invariant_error);
}

}  // namespace
}  // namespace mistral::cluster
