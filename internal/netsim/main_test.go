package netsim

import (
	"testing"

	"seve/internal/wire"
	"seve/internal/wire/wiretest"
)

// TestMain registers the churn action's decoder, once per process as
// wire.RegisterKind demands, and fails the run if a test leaves a pooled
// buffer or frame out of the pool (DESIGN.md §8).
func TestMain(m *testing.M) {
	wire.RegisterKind(kindChurn, unmarshalChurn)
	wiretest.Main(m)
}
