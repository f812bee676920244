// Package deploy describes the three cloud deployment models the paper
// compares — public, private and hybrid — plus the on-premise desktop
// baseline its Section III merits are measured against. It provides a
// 2013-era public-provider price catalog, capacity sizing helpers, the
// hybrid "distribution of units" policy, and a builder that turns a
// declarative Spec into running datacenters on a simulation engine.
//
// Entry points:
//
//   - Kind enumerates the models (Public, Private, Hybrid, Desktop;
//     Kinds() in presentation order) and is the axis every comparison
//     artifact sweeps.
//   - Build(engine, Spec) constructs a Deployment: the cloud.Datacenter
//     set a model of that Kind gets, sized for the Spec's population.
//     Size(Spec) returns the same Sizing (servers at peak, the fixed
//     private fleet, the owned hosts) without an engine, for the flow
//     model.
//   - AssetsFor(kind, policy, courses, students) is the one place asset
//     placement is decided: public models put everything with the
//     provider, a hybrid pins exam questions and grades private when
//     its policy says so, private and desktop keep everything in-house.
//     Build, every scenario bill and every analytic artifact call it.
//   - DefaultProvider is the 2013 public-cloud catalog (InstanceType
//     prices the scenario runs bill against); DefaultHybridPolicy is
//     §IV.C's "distribution of units" — which request classes stay on
//     the private side and which burst to public, the policy table4
//     ablates.
//   - ServersForPeak and VMsPerHost are the shared sizing arithmetic
//     (peak RPS → server count, host resources → VM packing) behind
//     Size, also used directly by the scalers, the invariants and the
//     federation study.
package deploy
