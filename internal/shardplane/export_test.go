package shardplane

// RestorePoint returns shard s's current restore point: the checkpoint
// frame a reconnect would restore it from.
func (t *TCPTransport) RestorePoint(s int) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shards[s].lastCkpt
}
