package hashsig

// SigFuture is a signature being computed concurrently with other work.
// ECDSA signing over P-256 is the single largest fixed cost on the batch
// commit path (paper §6.4: one header signature per batch); SignAsync lets
// the primary overlap it with receipt construction.
type SigFuture struct {
	done chan struct{}
	sig  Signature
	err  error
}

// SignAsync starts signing d on a fresh goroutine and returns a future.
// The goroutine is per-call rather than pooled: signing is milliseconds of
// work at most once per batch, so a persistent worker would idle almost
// always and leak if a ledger is abandoned.
func (p *PrivateKey) SignAsync(d Digest) *SigFuture {
	f := &SigFuture{done: make(chan struct{})}
	go func() {
		f.sig, f.err = p.Sign(d)
		close(f.done)
	}()
	return f
}

// Wait blocks until the signature is ready and returns it. Like Sign, an
// error is possible only on entropy exhaustion.
func (f *SigFuture) Wait() (Signature, error) {
	<-f.done
	return f.sig, f.err
}

// MustWait is Wait panicking on failure, matching MustSign.
func (f *SigFuture) MustWait() Signature {
	sig, err := f.Wait()
	if err != nil {
		panic(err)
	}
	return sig
}
