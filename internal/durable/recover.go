package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Recovery = shadow replay over the files. A generation is two files,
// both named by a counter the store never reuses: its image,
// snapshot-<gen>.state, the shadow baked when the generation was cut,
// and its segment, wal-<gen>.log, every record the engine emitted from
// that cut to the next, in order. Recovery loads the newest intact image
// (older generations are fallbacks kept by the gc policy; a corrupt
// newest image costs one checkpoint interval, not the world), then
// replays the segments from that image's generation onward, in order,
// through the committer's own apply. It stops at the first torn,
// corrupt or undecodable record, or a missing generation: everything
// past it was never acknowledged as durable. A shed pass freezes the
// commits there and lets the sessions and verdicts behind it through,
// as it did live.

func segmentName(gen uint64) string {
	return fmt.Sprintf("wal-%020d.log", gen)
}

func snapshotName(gen uint64) string {
	return fmt.Sprintf("snapshot-%020d.state", gen)
}

// scanDir lists the generations of the store's images and segments,
// ascending. It refuses a directory an older store wrote: one holding a
// meta lineage or a per-lane segment.
func scanDir(dir string) (snaps, segs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "meta-") && strings.HasSuffix(n, ".log") ||
			strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".log") && strings.Contains(n[len("wal-"):], "-") {
			return nil, nil, fmt.Errorf("durable: %s holds %s, a file of an older store layout; this store does not read it", dir, n)
		}
		if gen, ok := parseGen(n, "snapshot-", ".state"); ok {
			snaps = append(snaps, gen)
		} else if gen, ok := parseGen(n, "wal-", ".log"); ok {
			segs = append(segs, gen)
		}
	}
	slices.Sort(snaps)
	slices.Sort(segs)
	return snaps, segs, nil
}

func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return gen, err == nil
}

// recoverDir rebuilds the shadow from dir: nil when no image loads (a
// virgin store). next is the first generation no file in dir names.
func recoverDir(dir string) (sh *shadow, next uint64, err error) {
	snaps, segs, err := scanDir(dir)
	if err != nil {
		return nil, 0, err
	}
	for _, gens := range [][]uint64{snaps, segs} {
		if len(gens) > 0 {
			next = max(next, gens[len(gens)-1]+1)
		}
	}
	var gen uint64
	for i := len(snaps) - 1; i >= 0 && sh == nil; i-- {
		if raw, err := os.ReadFile(filepath.Join(dir, snapshotName(snaps[i]))); err == nil {
			if img, ok := loadImage(raw); ok {
				sh, gen = img, snaps[i]
			}
		}
	}
	if sh == nil {
		return nil, next, nil
	}
	for _, g := range segs {
		if g < gen {
			continue
		}
		if g != gen {
			break // a generation's segment is missing
		}
		raw, err := os.ReadFile(filepath.Join(dir, segmentName(g)))
		if err != nil || !scanRecords(raw, func(body []byte) bool {
			_, err := sh.apply(body)
			return err == nil
		}) {
			break
		}
		gen++
	}
	// A hole ends what this recovery claims; the next generation starts
	// at its edge.
	sh.gapped = false
	return sh, next, nil
}
