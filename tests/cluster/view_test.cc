// cluster_view: the host-subset lens behind pod-sharded control.
#include "cluster/view.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "test_fixtures.h"

namespace mistral::cluster {
namespace {

struct ViewTest : ::testing::Test {
    cluster_model model = test_support::make_model(6, 3);

    // Apps 0 and 1 on hosts {0,1,2}, app 2 on hosts {3,4}; host 5 dark.
    configuration base() const {
        configuration c(model.vm_count(), model.host_count());
        for (std::int32_t h = 0; h < 5; ++h) c.set_host_power(host_id{h}, true);
        for (std::int32_t a = 0; a < 2; ++a) {
            for (std::size_t t = 0; t < 3; ++t) {
                c.deploy(model.tier_vms(app_id{a}, t)[0],
                         host_id{static_cast<std::int32_t>(t % 3)}, 0.2);
            }
        }
        for (std::size_t t = 0; t < 3; ++t) {
            c.deploy(model.tier_vms(app_id{2}, t)[0],
                     host_id{static_cast<std::int32_t>(3 + t % 2)}, 0.25);
        }
        return c;
    }
};

TEST_F(ViewTest, IdentityLensAliasesParentAndCopiesBitIdentically) {
    cluster_view v(model);
    EXPECT_TRUE(v.identity());
    EXPECT_EQ(&v.local(), &model);  // no copy at all
    const auto cfg = base();
    const auto projected = v.project(cfg);
    EXPECT_EQ(projected, cfg);
    EXPECT_EQ(projected.hash(), cfg.hash());
    const action a = migrate{model.tier_vms(app_id{0}, 0)[0], host_id{2}};
    EXPECT_EQ(v.lift_action(a), a);
    ASSERT_TRUE(v.project_action(a).has_value());
    EXPECT_EQ(*v.project_action(a), a);
}

TEST_F(ViewTest, SubsetIdMapsRoundTrip) {
    cluster_view v(model, {0, 1, 2}, {0, 1});
    EXPECT_FALSE(v.identity());
    EXPECT_EQ(v.host_count(), 3u);
    EXPECT_EQ(v.app_count(), 2u);
    EXPECT_EQ(v.local().host_count(), 3u);
    EXPECT_EQ(v.local().app_count(), 2u);
    for (std::int32_t h = 0; h < 3; ++h) {
        const host_id local{h};
        EXPECT_EQ(v.to_local_host(v.to_parent_host(local)), local);
    }
    for (std::size_t i = 0; i < v.vm_count(); ++i) {
        const vm_id local{static_cast<std::int32_t>(i)};
        EXPECT_EQ(v.to_local_vm(v.to_parent_vm(local)), local);
    }
    // Entities outside the view map to invalid ids.
    EXPECT_FALSE(v.to_local_host(host_id{4}).valid());
    EXPECT_FALSE(v.to_local_app(app_id{2}).valid());
}

TEST_F(ViewTest, ProjectLiftRoundTripsTheConfiguration) {
    cluster_view v(model, {0, 1, 2}, {0, 1});
    const auto cfg = base();
    std::string why;
    ASSERT_TRUE(v.contains(cfg, &why)) << why;
    auto local = v.project(cfg);
    EXPECT_EQ(local.vm_count(), v.vm_count());
    // Mutate locally, lift back, re-project: the lens must be lossless.
    local.set_host_power(host_id{2}, true);
    const auto vm0 = vm_id{0};
    local.deploy(vm0, host_id{2}, 0.3);
    auto global = cfg;
    v.lift_into(local, global);
    EXPECT_EQ(v.project(global), local);
    // Hosts and apps outside the view are untouched by the lift.
    EXPECT_TRUE(global.host_on(host_id{3}));
    EXPECT_EQ(global.cap_sum(host_id{3}), cfg.cap_sum(host_id{3}));
    EXPECT_EQ(global.cap_sum(host_id{4}), cfg.cap_sum(host_id{4}));
}

TEST_F(ViewTest, ContainsDetectsStrayPlacement) {
    cluster_view v(model, {0, 1, 2}, {0, 1});
    auto cfg = base();
    // Move a view VM onto a non-view host: the invariant breaks.
    cfg.undeploy(model.tier_vms(app_id{0}, 0)[0]);
    cfg.deploy(model.tier_vms(app_id{0}, 0)[0], host_id{4}, 0.2);
    std::string why;
    EXPECT_FALSE(v.contains(cfg, &why));
    EXPECT_FALSE(why.empty());
    EXPECT_THROW((void)v.project(cfg), invariant_error);
}

TEST_F(ViewTest, ActionProjectionFiltersForeignActions) {
    cluster_view v(model, {0, 1, 2}, {0, 1});
    const vm_id mine = model.tier_vms(app_id{0}, 0)[0];
    const vm_id foreign = model.tier_vms(app_id{2}, 0)[0];
    EXPECT_TRUE(v.project_action(action{migrate{mine, host_id{1}}}).has_value());
    // Foreign VM, and a view VM targeting a foreign host, both filter out.
    EXPECT_FALSE(v.project_action(action{migrate{foreign, host_id{1}}}).has_value());
    EXPECT_FALSE(v.project_action(action{migrate{mine, host_id{4}}}).has_value());
    EXPECT_FALSE(v.project_action(action{power_off{host_id{5}}}).has_value());
    // Local → parent → local is the identity on view actions.
    const auto local = *v.project_action(action{migrate{mine, host_id{1}}});
    EXPECT_EQ(*v.project_action(v.lift_action(local)), local);
}

TEST_F(ViewTest, RejectsOutOfRangeAndEmptySubsets) {
    EXPECT_THROW(cluster_view(model, {0, 99}, {0}), invariant_error);
    EXPECT_THROW(cluster_view(model, {}, {0}), invariant_error);
    EXPECT_THROW(cluster_view(model, {0, 1}, {}), invariant_error);
    EXPECT_THROW(cluster_view(model, {0, 1}, {7}), invariant_error);
}

TEST_F(ViewTest, ProjectPerAppGathersByViewApps) {
    cluster_view v(model, {3, 4, 5}, {2});
    const std::vector<double> rates = {10.0, 20.0, 30.0};
    const auto local = v.project_per_app(rates);
    ASSERT_EQ(local.size(), 1u);
    EXPECT_EQ(local[0], 30.0);
}

}  // namespace
}  // namespace mistral::cluster
