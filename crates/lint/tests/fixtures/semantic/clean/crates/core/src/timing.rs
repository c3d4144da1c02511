pub fn total(run_cycles: u64, stall_cycles: u64) -> u64 {
    run_cycles + stall_cycles
}

pub fn advance(&mut self, now: u64) {
    let mut scratch: Vec<u64> = Vec::with_capacity(4);
    while self.clock < now {
        scratch.clear();
        self.clock += 1;
    }
}
