// Corpus for the //seve:vet-ignore directive machinery, exercised by
// TestDirectives rather than want comments: a valid directive
// suppresses, an unknown checker or missing reason is itself a finding,
// and the underlying finding then survives.
package dirtest

import "sync"

func suppressed(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	//seve:vet-ignore lockscope deliberate send under the lock to prove suppression works
	ch <- 1
}

func unknownChecker(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	//seve:vet-ignore nosuchchecker some reason
	ch <- 1
}

func missingReason(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	//seve:vet-ignore lockscope
	ch <- 1
}
