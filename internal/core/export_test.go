package core

// Seams for the external test package (identity_test.go), which drives this
// package through the replication tier and so cannot live inside it.

const (
	WALUpdate = walUpdate
	WALRemove = walRemove
)

// LogPayloads reads every record payload of a repository's log in dir.
var LogPayloads = logPayloads

// SetUpdateIndexHook installs (nil removes) the injected index failure.
func SetUpdateIndexHook(h func(Modality) error) { updateIndexHook = h }
