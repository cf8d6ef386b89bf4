// Hierarchical processor-sharing CPU model: host -> VMs -> jobs.
//
// This substitutes for the paper's ESXi host with consolidated VMs
// (DESIGN.md §2). A HostCpu owns `n_cores` of capacity; each VmCpu on it
// has a weight and a vCPU count. Capacity is divided by weighted
// water-filling among VMs with runnable jobs (a VM can use at most
// min(#jobs, #vcpus) cores); within a VM, runnable jobs share the
// allocation equally (classic PS). This reproduces the paper's
// consolidation mechanics: when SysBursty-MySQL bursts, the fair-share
// allocation of SysSteady-Tomcat collapses to ~50% of the shared core,
// its service rate drops below its demand, and queues build — a CPU
// millibottleneck.
//
// Completion bookkeeping uses the attained-service trick: per VM we keep
// a scalar A(t) that advances at rate alloc/n_jobs; a job arriving when
// the accumulator is A with demand d completes when A reaches A + d, so
// a min-heap of completion targets gives O(log n) arrivals/departures.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace ntier::cpu {

// Completion callback. Same inline type as the event queue's EventFn so
// submit() can forward a caller's closure without re-wrapping it.
using JobDoneFn = sim::EventFn;

class HostCpu;

// One VM's virtual CPU(s). Created via HostCpu::add_vm; pointer-stable.
class VmCpu {
 public:
  const std::string& name() const { return name_; }
  int vcpus() const { return vcpus_; }

  // Submits a CPU job; `done` fires when `demand` of CPU time has been
  // served under the sharing policy. Zero/negative demands complete on
  // the next event-loop tick.
  void submit(sim::Duration demand, JobDoneFn done);

  // Freezes the vCPU (no progress, still accumulates "wanting" time)
  // until now+d. Extends an existing freeze if longer. Models I/O-wait
  // stalls and GC pauses.
  void freeze_for(sim::Duration d);
  bool frozen() const;

  std::size_t active_jobs() const { return jobs_.size(); }

  HostCpu& host() const { return host_; }

  // --- accounting (cumulative up to now(); monitors diff successive
  // reads). The getters are pure reads: they add the not yet integrated
  // stretch since the host's last advance() without folding it in, so
  // reading them never changes the PS model's float accumulation (and
  // with it later completion times). ---
  // Core-seconds actually consumed.
  double busy_core_seconds() const;
  // Seconds during which >= 1 job was present (guest-visible "CPU busy
  // or runnable": this is what pegs at 100% during a millibottleneck).
  double demand_seconds() const;
  // Seconds frozen while jobs were present (guest-visible I/O wait).
  double stalled_seconds() const;

 private:
  friend class HostCpu;
  VmCpu(HostCpu& host, std::string name, int vcpus, double weight)
      : host_(host), name_(std::move(name)), vcpus_(vcpus), weight_(weight) {}

  struct Job {
    double target;  // attained-service level at which this job completes
    std::uint64_t seq;
    JobDoneFn done;
  };
  struct LaterTarget {
    bool operator()(const Job& a, const Job& b) const {
      if (a.target != b.target) return a.target > b.target;
      return a.seq > b.seq;
    }
  };

  HostCpu& host_;
  std::string name_;
  int vcpus_;
  double weight_;

  std::priority_queue<Job, std::vector<Job>, LaterTarget> jobs_;
  double attained_ = 0.0;   // seconds of per-job service delivered
  double alloc_ = 0.0;      // current allocation, in cores
  sim::Time frozen_until_{};

  double busy_core_s_ = 0.0;
  double want_s_ = 0.0;
  double stalled_s_ = 0.0;
};

class HostCpu {
 public:
  // n_cores > 0; fractional capacities allowed (e.g. capped VMs).
  HostCpu(sim::Simulation& sim, double n_cores);
  HostCpu(const HostCpu&) = delete;
  HostCpu& operator=(const HostCpu&) = delete;

  // Adds a VM with `vcpus` maximum parallelism and a fair-share weight.
  // The returned pointer is owned by the host and lives as long as it.
  VmCpu* add_vm(std::string name, int vcpus = 1, double weight = 1.0);

  double n_cores() const { return n_cores_; }
  const std::vector<std::unique_ptr<VmCpu>>& vms() const { return vms_; }
  sim::Simulation& simulation() { return sim_; }

  // Changes the host's capacity (DVFS frequency scaling: capacity =
  // cores x relative frequency). Running jobs keep their attained
  // service; rates change from now on.
  void set_capacity(double n_cores);

  // Total core-seconds consumed by all VMs up to now (governor input).
  // A pure read, like VmCpu's getters.
  double total_busy_core_seconds() const;

  // Integrates accounting and attained service up to sim.now(). The
  // model calls it at every arrival, completion and capacity change;
  // the Sampler tick and the DVFS governor call it before they read
  // the getters, at the instants where they always have, so every
  // seeded result keeps its float accumulation order.
  void advance();

 private:
  friend class VmCpu;

  // Simulated seconds since the last advance() (0 if none passed).
  double unadvanced_seconds() const;
  // Recomputes allocations and re-arms the next completion event.
  void reschedule();
  void on_completion_event();
  static bool runnable(const VmCpu& vm, sim::Time now);

  sim::Simulation& sim_;
  double n_cores_;
  std::vector<std::unique_ptr<VmCpu>> vms_;
  sim::Time last_advance_{};
  sim::EventHandle pending_;
  std::uint64_t next_seq_ = 0;
  // Scratch buffers reused across calls (steady state allocates nothing).
  std::vector<VmCpu*> open_scratch_;
  std::vector<JobDoneFn> done_scratch_;
};

}  // namespace ntier::cpu
