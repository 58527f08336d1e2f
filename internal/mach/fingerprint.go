package mach

// Fingerprint returns the digest of the description text the machine was
// parsed from, recorded by maril.ParseInfo: it identifies the description
// across retargets and is the machine component of the compilation-cache
// key (internal/cache). Two loads of the same text are equal; any edit to
// the text or the machine name changes it. A machine that did not come
// from maril.Parse has the zero fingerprint, which the driver reads as
// "no cache for this run".
func (m *Machine) Fingerprint() [32]byte { return m.fingerprint }

// SetFingerprint records the description digest; maril.ParseInfo is the
// one caller.
func (m *Machine) SetFingerprint(d [32]byte) { m.fingerprint = d }
