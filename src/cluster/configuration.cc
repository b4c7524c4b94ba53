#include "cluster/configuration.h"

#include <cmath>
#include <sstream>

#include "common/check.h"

namespace mistral::cluster {

namespace {

fraction round_cap(fraction cap) { return std::round(cap * 1000.0) / 1000.0; }

// Exact integer milli-cap of an already-rounded cap.
std::int32_t milli(fraction cap) {
    return static_cast<std::int32_t>(std::llround(cap * 1000.0));
}

// splitmix64 finalizer: the Zobrist key generator. A true Zobrist table over
// (vm × host × 1000 milli-caps) would be megabytes per model; hashing the
// packed slot through a strong mixer gives statistically independent keys
// without any table, and stays a pure function so every configuration with
// equal state carries an equal hash.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// Key families get distinct salts so e.g. host 3 powered on can never cancel
// a placement key by accident.
constexpr std::uint64_t kPlacementSalt = 0xa0761d6478bd642fULL;
constexpr std::uint64_t kHostOnSalt = 0xe7037ed1a0b428dbULL;
constexpr std::uint64_t kHostFailedSalt = 0x8ebc6af09c88c6e3ULL;

// Placement keys pack (vm, host, milli-cap) into one word: vm and host are
// int32 indices and milli-caps lie in [1, 1000], so 20 bits each is ample.
std::uint64_t placement_key(std::size_t vm, std::size_t host, std::int32_t m) {
    return mix64(kPlacementSalt ^ (static_cast<std::uint64_t>(vm) << 40) ^
                 (static_cast<std::uint64_t>(host) << 20) ^
                 static_cast<std::uint64_t>(m));
}

std::uint64_t host_on_key(std::size_t host) {
    return mix64(kHostOnSalt ^ host);
}

std::uint64_t host_failed_key(std::size_t host) {
    return mix64(kHostFailedSalt ^ host);
}

// Hash of the empty configuration: derived from the shape so differently
// sized configurations (never equal) rarely collide. Zero for the
// default-constructed (zero-sized) configuration, matching its member
// initializer.
std::uint64_t base_hash(std::size_t vm_count, std::size_t host_count) {
    if (vm_count == 0 && host_count == 0) return 0;
    return mix64((static_cast<std::uint64_t>(vm_count) << 32) ^ host_count);
}

}  // namespace

configuration::configuration(std::size_t vm_count, std::size_t host_count)
    : vms_(vm_count),
      hosts_(host_count),
      zobrist_(base_hash(vm_count, host_count)) {
    MISTRAL_CHECK(vm_count > 0);
    MISTRAL_CHECK(host_count > 0);
}

bool configuration::deployed(vm_id vm) const { return placement(vm).has_value(); }

const std::optional<vm_placement>& configuration::placement(vm_id vm) const {
    MISTRAL_CHECK(vm.valid() && vm.index() < vms_.size());
    return vms_[vm.index()];
}

const configuration::host_state& configuration::host_at(host_id host) const {
    MISTRAL_CHECK(host.valid() && host.index() < hosts_.size());
    return hosts_[host.index()];
}

bool configuration::host_on(host_id host) const { return host_at(host).on; }

bool configuration::host_failed(host_id host) const { return host_at(host).failed; }

bool configuration::any_host_failed() const {
    for (const auto& h : hosts_) {
        if (h.failed) return true;
    }
    return false;
}

std::vector<vm_id> configuration::vms_on(host_id host) const {
    MISTRAL_CHECK(host.valid() && host.index() < hosts_.size());
    std::vector<vm_id> out;
    for (std::size_t i = 0; i < vms_.size(); ++i) {
        if (vms_[i] && vms_[i]->host == host) {
            out.push_back(vm_id{static_cast<std::int32_t>(i)});
        }
    }
    return out;
}

std::size_t configuration::active_host_count() const {
    std::size_t n = 0;
    for (const auto& h : hosts_) n += h.on ? 1 : 0;
    return n;
}

std::size_t configuration::deployed_vm_count() const {
    std::size_t n = 0;
    for (const auto& p : vms_) n += p.has_value() ? 1 : 0;
    return n;
}

std::size_t configuration::vm_count_on(host_id host) const {
    return static_cast<std::size_t>(host_at(host).vm_count);
}

fraction configuration::cap_sum(host_id host) const {
    return static_cast<fraction>(host_at(host).cap_milli) / 1000.0;
}

double configuration::memory_sum(const cluster_model& model, host_id host) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < vms_.size(); ++i) {
        if (vms_[i] && vms_[i]->host == host) {
            sum += model.vm(vm_id{static_cast<std::int32_t>(i)}).memory_mb;
        }
    }
    return sum;
}

void configuration::deploy(vm_id vm, host_id host, fraction cpu_cap) {
    MISTRAL_CHECK(vm.valid() && vm.index() < vms_.size());
    MISTRAL_CHECK(host.valid() && host.index() < hosts_.size());
    MISTRAL_CHECK(cpu_cap > 0.0 && cpu_cap <= 1.0);
    if (const auto& old = vms_[vm.index()]) {  // re-deploy moves the VM
        auto& from = hosts_[old->host.index()];
        from.cap_milli -= milli(old->cpu_cap);
        from.vm_count -= 1;
        zobrist_ ^= placement_key(vm.index(), old->host.index(), milli(old->cpu_cap));
    }
    const fraction cap = round_cap(cpu_cap);
    vms_[vm.index()] = vm_placement{host, cap};
    auto& to = hosts_[host.index()];
    to.cap_milli += milli(cap);
    to.vm_count += 1;
    zobrist_ ^= placement_key(vm.index(), host.index(), milli(cap));
}

void configuration::undeploy(vm_id vm) {
    MISTRAL_CHECK(vm.valid() && vm.index() < vms_.size());
    if (const auto& old = vms_[vm.index()]) {
        auto& from = hosts_[old->host.index()];
        from.cap_milli -= milli(old->cpu_cap);
        from.vm_count -= 1;
        zobrist_ ^= placement_key(vm.index(), old->host.index(), milli(old->cpu_cap));
    }
    vms_[vm.index()].reset();
}

void configuration::set_cap(vm_id vm, fraction cpu_cap) {
    MISTRAL_CHECK(vm.valid() && vm.index() < vms_.size());
    MISTRAL_CHECK_MSG(vms_[vm.index()].has_value(), "set_cap on dormant " << vm);
    MISTRAL_CHECK(cpu_cap > 0.0 && cpu_cap <= 1.0);
    auto& p = *vms_[vm.index()];
    const fraction cap = round_cap(cpu_cap);
    hosts_[p.host.index()].cap_milli += milli(cap) - milli(p.cpu_cap);
    zobrist_ ^= placement_key(vm.index(), p.host.index(), milli(p.cpu_cap)) ^
                placement_key(vm.index(), p.host.index(), milli(cap));
    p.cpu_cap = cap;
}

void configuration::set_host_power(host_id host, bool on) {
    MISTRAL_CHECK(host.valid() && host.index() < hosts_.size());
    auto& h = hosts_[host.index()];
    // Toggle the key only on an actual transition: XOR-ing on every call
    // would corrupt the hash under idempotent writes.
    if (h.on != on) zobrist_ ^= host_on_key(host.index());
    h.on = on;
}

void configuration::set_host_failed(host_id host, bool failed) {
    MISTRAL_CHECK(host.valid() && host.index() < hosts_.size());
    auto& h = hosts_[host.index()];
    if (h.failed != failed) zobrist_ ^= host_failed_key(host.index());
    h.failed = failed;
    if (failed && h.on) {
        zobrist_ ^= host_on_key(host.index());
        h.on = false;
    }
}

std::uint64_t configuration::recompute_hash() const {
    std::uint64_t h = base_hash(vms_.size(), hosts_.size());
    for (std::size_t i = 0; i < vms_.size(); ++i) {
        if (const auto& p = vms_[i]) {
            h ^= placement_key(i, p->host.index(), milli(p->cpu_cap));
        }
    }
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
        if (hosts_[i].on) h ^= host_on_key(i);
    }
    // Failure keys fold in only for failed hosts, so a configuration whose
    // failure marks have all cleared hashes exactly like one that never
    // failed (the search's replay determinism relies on that).
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
        if (hosts_[i].failed) h ^= host_failed_key(i);
    }
    return h;
}

std::string configuration::describe(const cluster_model& model) const {
    std::ostringstream os;
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        os << model.hosts()[h].name
           << (hosts_[h].failed ? "[failed]" : (hosts_[h].on ? "[on]" : "[off]"))
           << ":";
        bool first = true;
        for (std::size_t i = 0; i < vms_.size(); ++i) {
            if (vms_[i] && vms_[i]->host == host) {
                const auto& desc = model.vm(vm_id{static_cast<std::int32_t>(i)});
                const auto& app = model.app(desc.app);
                os << (first ? " " : ",") << app.name() << "/"
                   << app.tiers()[desc.tier].name << desc.replica_index << "@"
                   << static_cast<int>(std::round(vms_[i]->cpu_cap * 100.0)) << "%";
                first = false;
            }
        }
        if (first) os << " -";
        os << (h + 1 < hosts_.size() ? "  " : "");
    }
    return os.str();
}

namespace {

bool valid_impl(const cluster_model& model, const configuration& config,
                bool enforce_replica_minima, std::string* why) {
    auto fail = [&](const std::string& msg) {
        if (why) *why = msg;
        return false;
    };
    MISTRAL_CHECK(config.vm_count() == model.vm_count());
    MISTRAL_CHECK(config.host_count() == model.host_count());

    for (std::size_t h = 0; h < model.host_count(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        if (config.host_failed(host) && config.host_on(host)) {
            return fail("failed host powered on: " + model.hosts()[h].name);
        }
    }
    for (const auto& desc : model.vms()) {
        const auto& p = config.placement(desc.vm);
        if (!p) continue;
        if (!config.host_on(p->host)) {
            return fail("VM on powered-off host");
        }
        const auto& tier = model.tier_spec_of(desc.vm);
        if (p->cpu_cap < tier.min_cpu_cap - 1e-9 || p->cpu_cap > tier.max_cpu_cap + 1e-9) {
            return fail("cap outside tier window");
        }
    }
    // One pass over the VMs for every host's memory load (memory_sum per
    // host would rescan the whole inventory host_count times).
    std::vector<double> memory(model.host_count(), 0.0);
    for (const auto& desc : model.vms()) {
        const auto& p = config.placement(desc.vm);
        if (p) memory[p->host.index()] += desc.memory_mb;
    }
    for (std::size_t h = 0; h < model.host_count(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        if (static_cast<int>(config.vm_count_on(host)) >
            model.limits().max_vms_per_host) {
            return fail("too many VMs on " + model.hosts()[h].name);
        }
        const double available = model.hosts()[h].memory_mb - model.limits().dom0_memory_mb;
        if (memory[h] > available + 1e-9) {
            return fail("memory overcommitted on " + model.hosts()[h].name);
        }
    }
    if (enforce_replica_minima) {
        for (std::size_t a = 0; a < model.app_count(); ++a) {
            const app_id app{static_cast<std::int32_t>(a)};
            for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
                int deployed = 0;
                for (vm_id vm : model.tier_vms(app, t)) {
                    deployed += config.deployed(vm) ? 1 : 0;
                }
                const auto& tier = model.app(app).tiers()[t];
                if (deployed < tier.min_replicas) {
                    return fail(model.app(app).name() + "/" + tier.name +
                                " below minimum replication");
                }
            }
        }
    }
    return true;
}

}  // namespace

bool structurally_valid(const cluster_model& model, const configuration& config,
                        std::string* why) {
    return valid_impl(model, config, /*enforce_replica_minima=*/true, why);
}

bool structurally_valid_degraded(const cluster_model& model,
                                 const configuration& config, std::string* why) {
    return valid_impl(model, config, /*enforce_replica_minima=*/false, why);
}

bool is_candidate(const cluster_model& model, const configuration& config,
                  std::string* why) {
    if (!structurally_valid(model, config, why)) return false;
    for (std::size_t h = 0; h < model.host_count(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        if (overbooked(model, config, host)) {
            if (why) *why = "CPU overbooked on " + model.hosts()[h].name;
            return false;
        }
    }
    return true;
}

bool overbooked(const cluster_model& model, const configuration& config,
                host_id host) {
    return config.cap_sum(host) > model.limits().host_cpu_cap + 1e-9;
}

double cap_distance(const cluster_model& model, const configuration& a,
                    const configuration& b, const configuration& ideal) {
    // Weight each VM by its relative cap in the ideal configuration; dormant
    // VMs get a small floor weight so add/remove differences still register.
    double weight_sum = 0.0;
    std::vector<double> weights(model.vm_count(), 0.05);
    for (const auto& desc : model.vms()) {
        const auto& p = ideal.placement(desc.vm);
        if (p) weights[desc.vm.index()] = p->cpu_cap;
        weight_sum += weights[desc.vm.index()];
    }
    double sum = 0.0;
    for (const auto& desc : model.vms()) {
        const auto& pa = a.placement(desc.vm);
        const auto& pb = b.placement(desc.vm);
        const double ca = pa ? pa->cpu_cap : 0.0;
        const double cb = pb ? pb->cpu_cap : 0.0;
        sum += weights[desc.vm.index()] / weight_sum * (ca - cb) * (ca - cb);
    }
    return std::sqrt(sum);
}

double placement_distance(const cluster_model& model, const configuration& a,
                          const configuration& b) {
    if (model.vm_count() == 0) return 0.0;
    std::size_t same = 0;
    for (const auto& desc : model.vms()) {
        const auto& pa = a.placement(desc.vm);
        const auto& pb = b.placement(desc.vm);
        const bool identical = (!pa && !pb) || (pa && pb && pa->host == pb->host);
        same += identical ? 1 : 0;
    }
    return 1.0 - static_cast<double>(same) / static_cast<double>(model.vm_count());
}

}  // namespace mistral::cluster
