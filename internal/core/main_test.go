package core

import (
	"testing"

	"seve/internal/wire/wiretest"
)

// TestMain fails the run if a test leaves a pooled buffer or frame out
// of the pool (DESIGN.md §8).
func TestMain(m *testing.M) { wiretest.Main(m) }
