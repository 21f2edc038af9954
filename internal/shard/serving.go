package shard

import "repro/internal/serve"

// The serving fleet lives in internal/serve. These four names are what
// bench/traced.go, which a PR that moves packages may not edit, still
// imports from here. Delete this file once ROADMAP item 1(a) has re-pointed
// those imports.
type (
	ReplicaConfig  = serve.ReplicaConfig
	FrontendConfig = serve.FrontendConfig
)

var (
	NewReplica  = serve.NewReplica
	NewFrontend = serve.NewFrontend
)
