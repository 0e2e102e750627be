// Corpus for the deliveryclass checker. Lines with a `// want` comment
// must be flagged with a message matching the regexp; everything else
// must stay clean.
package dctest

import (
	"seve/internal/core"
	"seve/internal/wire"
)

// bareReply omits the Deliver key, silently inheriting DeliveryOrdered.
func bareReply(m wire.Msg) core.Reply {
	return core.Reply{Msg: m} // want `core.Reply literal without Deliver metadata`
}

// bareInSlice is the engine's shape: the literal appended to an output.
func bareInSlice(out *core.ServerOutput, m wire.Msg) {
	out.Replies = append(out.Replies, core.Reply{ // want `core.Reply literal without Deliver metadata`
		To:  1,
		Msg: m,
	})
}

// taggedReply spells the class out.
func taggedReply(m wire.Msg) core.Reply {
	return core.Reply{Msg: m, Deliver: core.Delivery{Class: core.DeliveryBatch}}
}

// zeroReply is a zero-value sentinel, positionalReply spells out every
// field by construction; neither needs the key.
func zeroReply() core.Reply { return core.Reply{} }

func positionalReply(m wire.Msg) core.Reply {
	return core.Reply{0, m, core.Delivery{Class: core.DeliveryOrdered}}
}
