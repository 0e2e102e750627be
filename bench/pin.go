package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// schedSetaffinity is Linux's sched_setaffinity system call number per
// architecture. Package syscall names it only in its Linux files, and
// seve-vet's loader reads every file of a package whatever its build
// constraints, so this package cannot have per-OS files.
var schedSetaffinity = map[string]uintptr{"amd64": 203, "arm64": 122}

// pinToOneCPU binds every thread of the process to the processor the
// calling thread is running on. At GOMAXPROCS=1 one thread runs Go code
// at a time, but the kernel still moved it between the host's two
// processors, and every move refills the core's private cache: six
// unpinned walk64 runs read 15.5–19.1 µs of CPU per commit, six pinned
// ones 15.7–16.5. Staying where the kernel put the process, rather than
// naming a processor, keeps two benchmark processes started side by
// side apart. Threads the runtime starts later inherit the mask from
// the pinned thread that starts them. Anywhere but Linux on a known
// architecture, and on any failure, the run is merely noisier.
func pinToOneCPU() {
	call, ok := schedSetaffinity[runtime.GOARCH]
	if !ok || runtime.GOOS != "linux" {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Field 39 of a thread's stat line is the processor it last ran on;
	// the fields are counted from behind the command name, which may
	// itself hold spaces.
	stat, err := os.ReadFile("/proc/thread-self/stat")
	if err != nil {
		return
	}
	fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(fields) < 37 {
		return
	}
	cpu, err := strconv.Atoi(fields[36])
	var mask [16]uint64 // 1024 processors
	if err != nil || cpu < 0 || cpu >= 64*len(mask) {
		return
	}
	mask[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
		}
	}
}
