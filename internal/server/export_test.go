package server

// AcceptedConns reports how many connections the accept loop has taken,
// so a test can order a drain after a dialed connection has left the
// kernel's accept backlog.
func (s *Server) AcceptedConns() uint64 { return s.metrics.connsAccepted.Load() }
