// Package lms models the e-learning application layer: the request mix
// a learning-management system serves (content pages, video, quizzes,
// uploads), processor-sharing application servers running on cloud
// VMs, a load-balanced cluster, user sessions with autosave, and the
// digital assets ("tests, exam questions, results") whose safety the
// paper worries about (§III).
//
// Entry points:
//
//   - Class / ClassSpec / Mix describe the traffic: DefaultCatalog
//     carries the per-class service demands, TeachingMix and ExamMix
//     are the two canonical blends (the workload package draws
//     arrivals from a Mix).
//   - NewAppServer binds a processor-sharing server to a cloud.VM;
//     NewCluster load-balances a fleet of them. Together they are the
//     serving path every request-level scenario run measures latency
//     through. Cluster.Submit is the one way in: a job's done callback
//     fires once, with killed=false when the job completes or
//     killed=true when a host failure aborts it (AppServer.Kill). Jobs
//     sit by value in each server's heap and the completion callback is
//     bound once per server, so the serving path allocates nothing per
//     request.
//   - NewSession models one student's stateful session with periodic
//     autosave — the unit of "lost work" when the network drops
//     (figure5's §III risk).
//   - NewAssetStore is the institution's digital-asset inventory, held
//     per AssetKind: a count, a unit size and a Location (OnPublic or
//     OnPrivate) for each kind. It is what the security package
//     threatens and the migrate package has to move. Placement is not
//     decided here: deploy.AssetsFor is the one rule that places a
//     store for a deployment model.
package lms
