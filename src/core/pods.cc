#include "core/pods.h"

#include <algorithm>

#include "common/check.h"

namespace mistral::core {

partition::partition(const cluster::cluster_model& model,
                     std::vector<pod_spec> pods)
    : pods_(std::move(pods)) {
    MISTRAL_CHECK_MSG(!pods_.empty(), "a partition needs at least one pod");
    host_owner_.assign(model.host_count(), pods_.size());
    for (std::size_t i = 0; i < pods_.size(); ++i) {
        auto& pod = pods_[i];
        MISTRAL_CHECK_MSG(pod.id == i, "pod ids must be sequential from 0");
        MISTRAL_CHECK_MSG(!pod.hosts.empty(), "pod " << i << " owns no hosts");
        std::sort(pod.hosts.begin(), pod.hosts.end());
        pod.hosts.erase(std::unique(pod.hosts.begin(), pod.hosts.end()),
                        pod.hosts.end());
        for (const std::size_t h : pod.hosts) {
            MISTRAL_CHECK_MSG(h < model.host_count(),
                              "pod " << i << " references unknown host " << h);
            MISTRAL_CHECK_MSG(host_owner_[h] == pods_.size(),
                              "host " << h << " claimed by pods "
                                      << host_owner_[h] << " and " << i);
            host_owner_[h] = i;
        }
    }
    for (std::size_t h = 0; h < host_owner_.size(); ++h) {
        MISTRAL_CHECK_MSG(host_owner_[h] < pods_.size(),
                          "host " << h << " belongs to no pod");
    }
}

partition uniform_partition(const cluster::cluster_model& model,
                            std::size_t pod_count) {
    MISTRAL_CHECK(pod_count >= 1 && pod_count <= model.host_count());
    const std::size_t hosts = model.host_count();
    const std::size_t base = hosts / pod_count;
    const std::size_t extra = hosts % pod_count;
    std::vector<pod_spec> pods;
    pods.reserve(pod_count);
    std::size_t next = 0;
    for (std::size_t i = 0; i < pod_count; ++i) {
        pod_spec pod;
        pod.id = i;
        const std::size_t take = base + (i < extra ? 1 : 0);
        for (std::size_t k = 0; k < take; ++k) pod.hosts.push_back(next++);
        pods.push_back(std::move(pod));
    }
    return partition(model, std::move(pods));
}

std::vector<std::size_t> assign_apps(const cluster::cluster_model& model,
                                     const partition& parts,
                                     const cluster::configuration& initial) {
    MISTRAL_CHECK(initial.vm_count() == model.vm_count());
    MISTRAL_CHECK(initial.host_count() == model.host_count());
    std::vector<std::size_t> owner(model.app_count(), parts.size());
    for (const auto& vm : model.vms()) {
        const auto& p = initial.placement(vm.vm);
        if (!p) continue;
        const std::size_t pod = parts.pod_of_host(p->host.index());
        auto& slot = owner[vm.app.index()];
        if (slot == parts.size()) {
            slot = pod;
        } else {
            MISTRAL_CHECK_MSG(slot == pod,
                              "app " << vm.app.value << " straddles pods " << slot
                                     << " and " << pod
                                     << "; sharded control needs pod-contained apps");
        }
    }
    for (auto& slot : owner) {
        if (slot == parts.size()) slot = 0;  // undeployed apps park in pod 0
    }
    return owner;
}

}  // namespace mistral::core
