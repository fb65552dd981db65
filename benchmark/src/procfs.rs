//! What the benchmark reads from `/proc`: CPU and run-queue time per
//! thread, process memory, and the host facts recorded with every result.
//!
//! Everything is observed from outside the pipeline. Threads are told apart
//! without touching the library: the set of thread ids is listed before and
//! after each public call that spawns threads, and the new ids — in
//! ascending order, which is spawn order — are attributed to that call.

use std::fs;

/// Busy and waiting time of one thread, from its `schedstat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sched {
    /// Nanoseconds spent running on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable, waiting on a run queue.
    pub wait_ns: u64,
}

impl Sched {
    /// Time accumulated since `earlier`.
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// Parses `/proc/<pid>/task/<tid>/schedstat`: `run_ns wait_ns timeslices`.
pub fn parse_schedstat(text: &str) -> Option<Sched> {
    let mut fields = text.split_ascii_whitespace();
    Some(Sched {
        run_ns: fields.next()?.parse().ok()?,
        wait_ns: fields.next()?.parse().ok()?,
    })
}

/// Parses user and system clock ticks (fields 14 and 15) out of
/// `/proc/<pid>/stat`. The command name in field 2 may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_ticks(text: &str) -> Option<(u64, u64)> {
    let after_comm = &text[text.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// The value of line `key:` in `/proc/<pid>/status`.
fn status_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
}

/// Parses a `kB` line such as `VmHWM` or `VmRSS` out of
/// `/proc/<pid>/status`.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    status_field(text, key)?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// Parses `voluntary_ctxt_switches` out of a thread's `status`: how often
/// the thread blocked and had to be woken again.
pub fn parse_status_wakeups(text: &str) -> Option<u64> {
    status_field(text, "voluntary_ctxt_switches")?.parse().ok()
}

/// Parses bytes and packets transmitted on `interface` out of
/// `/proc/net/dev` (columns 9 and 10 after the interface name).
pub fn parse_net_dev_sent(text: &str, interface: &str) -> Option<(u64, u64)> {
    let counters = text
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(interface)?.strip_prefix(':'))?;
    let mut fields = counters.split_ascii_whitespace().skip(8);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// Thread ids present in `after` but not in `before`, ascending.
pub fn new_tids(before: &[u32], after: &[u32]) -> Vec<u32> {
    let mut fresh: Vec<u32> = after
        .iter()
        .copied()
        .filter(|t| !before.contains(t))
        .collect();
    fresh.sort_unstable();
    fresh
}

/// Thread ids of this process.
pub fn list_tids() -> Vec<u32> {
    fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Runs `f` and returns its result with the ids of the threads it left
/// running, in spawn order.
pub fn spawned_by<T>(f: impl FnOnce() -> T) -> (T, Vec<u32>) {
    let before = list_tids();
    let result = f();
    (result, new_tids(&before, &list_tids()))
}

/// The calling thread's id (`/proc/thread-self` → `<pid>/task/<tid>`).
pub fn current_tid() -> Option<u32> {
    fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

/// Reads `path` and parses it; the default when either fails (a thread
/// that has exited, a file this kernel does not have).
fn read<T: Default>(path: &str, parse: impl FnOnce(&str) -> Option<T>) -> T {
    fs::read_to_string(path)
        .ok()
        .and_then(|text| parse(&text))
        .unwrap_or_default()
}

/// Busy and waiting time of thread `tid`; zeros once the thread is gone.
pub fn sched_of(tid: u32) -> Sched {
    read(&format!("/proc/self/task/{tid}/schedstat"), parse_schedstat)
}

/// Times thread `tid` has blocked so far; 0 once the thread is gone.
pub fn wakeups_of(tid: u32) -> u64 {
    read(
        &format!("/proc/self/task/{tid}/status"),
        parse_status_wakeups,
    )
}

/// Bytes and packets sent over the loopback interface so far. Every
/// datagram of the pipeline crosses it once: device → gateway, gateway →
/// translator, and each acknowledgement back.
pub fn loopback_sent() -> (u64, u64) {
    read("/proc/net/dev", |t| parse_net_dev_sent(t, "lo"))
}

/// User and system clock ticks of the whole process.
pub fn process_ticks() -> (u64, u64) {
    read("/proc/self/stat", parse_stat_ticks)
}

/// A `kB` figure from `/proc/self/status`, 0 when unreadable.
pub fn status_kb(key: &str) -> u64 {
    read("/proc/self/status", |t| parse_status_kb(t, key))
}

/// One UDP socket as `/proc/net/udp` lists it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpSocket {
    /// Socket inode, which `/proc/self/fd` links name.
    pub inode: u64,
    /// Bytes queued for the owner to receive.
    pub rx_queue: u64,
    /// Datagrams the kernel dropped because the receive buffer was full.
    pub drops: u64,
}

/// Parses `/proc/net/udp`: after the header, one socket per line with
/// `tx_queue:rx_queue` (hex) in column 5, the inode in column 10 and the
/// drop count in column 13.
pub fn parse_net_udp(text: &str) -> Vec<UdpSocket> {
    text.lines()
        .skip(1)
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_ascii_whitespace().collect();
            let (_, rx_queue) = fields.get(4)?.split_once(':')?;
            Some(UdpSocket {
                inode: fields.get(9)?.parse().ok()?,
                rx_queue: u64::from_str_radix(rx_queue, 16).ok()?,
                drops: fields.get(12)?.parse().ok()?,
            })
        })
        .collect()
}

/// The UDP sockets this process holds open: the gateway's, the
/// translator's subscription and one per transmitter.
pub fn own_udp_sockets() -> Vec<UdpSocket> {
    let own_inodes: Vec<u64> = fs::read_dir("/proc/self/fd")
        .map(|dir| {
            dir.filter_map(|e| {
                let link = fs::read_link(e.ok()?.path()).ok()?;
                let inode = link.to_str()?.strip_prefix("socket:[")?.strip_suffix(']')?;
                inode.parse().ok()
            })
            .collect()
        })
        .unwrap_or_default();
    read("/proc/net/udp", |t| Some(parse_net_udp(t)))
        .into_iter()
        .filter(|s| own_inodes.contains(&s.inode))
        .collect()
}

fn read_trimmed(path: &str) -> String {
    fs::read_to_string(path)
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// Kernel release string.
pub fn kernel() -> String {
    read_trimmed("/proc/sys/kernel/osrelease")
}

/// Default UDP receive-buffer size in bytes (`net.core.rmem_default`): the
/// room a burst has before the kernel drops datagrams.
pub fn rmem_default() -> String {
    read_trimmed("/proc/sys/net/core/rmem_default")
}

/// The checked-out commit, read from `.git` beside the benchmark; the
/// benchmark also runs from exported trees, where it is `unknown`.
pub fn git_commit(repo_root: &std::path::Path) -> String {
    let head = read_trimmed(&repo_root.join(".git/HEAD").to_string_lossy());
    match head.strip_prefix("ref: ") {
        Some(reference) => read_trimmed(&repo_root.join(".git").join(reference).to_string_lossy()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Shaped like the files on the 2-core benchmark host (Linux 6.18); the
    // command name is made awkward on purpose.
    const STAT: &str = "14488 (prov (light) x) R 14483 14488 14483 0 -1 4194304 82 0 0 0 \
        731 209 0 0 20 0 7 0 1939575 2703360 323 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 \
        17 0 0 0 0 0 0 0 0 0 0 0 0 0 0";
    const SCHEDSTAT: &str = "4812345678 67856 1093\n";
    const STATUS: &str = "Name:\tprovlight-bench\nVmPeak:\t  420000 kB\nVmHWM:\t   91704 kB\n\
        VmRSS:\t   80120 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t48211\n\
        nonvoluntary_ctxt_switches:\t97\n";
    const NET_DEV: &str = "Inter-|   Receive                    |  Transmit\n\
        \x20face |bytes packets errs drop fifo frame compressed multicast|bytes packets errs\n\
        \x20   lo: 41144924399 197014874 0 0 0 0 0 0 41144924400 197014875 0 0 0 0 0 0\n\
        \x20 eth0:   59757     792    0    0    0     0 0 0    47828     813    0    1 0 0 0 0\n";

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        assert_eq!(parse_stat_ticks(STAT), Some((731, 209)));
        assert_eq!(parse_stat_ticks("1 (x) R 2"), None);
        assert_eq!(parse_stat_ticks(""), None);
    }

    #[test]
    fn schedstat_gives_run_and_wait() {
        let s = parse_schedstat(SCHEDSTAT).unwrap();
        assert_eq!((s.run_ns, s.wait_ns), (4_812_345_678, 67_856));
        assert_eq!(parse_schedstat("12"), None);
        let later = Sched {
            run_ns: 5_000_000_000,
            wait_ns: 100_000,
        };
        assert_eq!(later.since(s).run_ns, 187_654_322);
    }

    #[test]
    fn status_lines_are_found_by_key() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(91_704));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(80_120));
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
        // `Vm` is a prefix of several keys but matches none exactly.
        assert_eq!(parse_status_kb(STATUS, "Vm"), None);
        assert_eq!(parse_status_wakeups(STATUS), Some(48_211));
        assert_eq!(parse_status_wakeups("Name:\tx\n"), None);
    }

    #[test]
    fn loopback_counters_are_the_transmit_columns() {
        assert_eq!(
            parse_net_dev_sent(NET_DEV, "lo"),
            Some((41_144_924_400, 197_014_875))
        );
        assert_eq!(parse_net_dev_sent(NET_DEV, "eth0"), Some((47_828, 813)));
        assert_eq!(parse_net_dev_sent(NET_DEV, "wlan0"), None);
        assert!(loopback_sent().1 > 0 || loopback_sent() == (0, 0));
    }

    #[test]
    fn udp_sockets_list_queue_and_drops() {
        // Two transmitter sockets caught with full receive queues, and the
        // translator's idle one.
        let listed = "   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops\n\
            \x20 112: 0100007F:B0A1 0100007F:82BA 01 00000000:00027340 00:00000000 00000000     0        0 51960 2 0000000000000000 63\n\
            \x20 410: 0100007F:82BA 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 51958 2 0000000000000000 0\n\
            garbage\n";
        assert_eq!(
            parse_net_udp(listed),
            vec![
                UdpSocket {
                    inode: 51960,
                    rx_queue: 0x27340,
                    drops: 63
                },
                UdpSocket {
                    inode: 51958,
                    rx_queue: 0,
                    drops: 0
                }
            ]
        );
        // A socket opened here shows up among the process's own.
        let socket = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        assert!(!own_udp_sockets().is_empty());
        drop(socket);
    }

    #[test]
    fn new_threads_are_attributed_in_spawn_order() {
        // `ProvenanceManager::start`: gateway serve thread, then translator.
        assert_eq!(new_tids(&[100, 101], &[101, 205, 100, 204]), vec![204, 205]);
        assert_eq!(new_tids(&[100], &[100]), Vec::<u32>::new());
        // A thread that exited in between is simply not new.
        assert_eq!(new_tids(&[100, 150], &[100, 160]), vec![160]);
    }

    #[test]
    fn a_spawned_thread_is_seen_from_outside() {
        // Other tests start threads concurrently, so only membership of the
        // thread spawned here is asserted.
        let ((stop, handle, tid), tids) = spawned_by(|| {
            let (stop, wait) = std::sync::mpsc::channel::<()>();
            let (report, tid) = std::sync::mpsc::channel();
            let handle = std::thread::spawn(move || {
                report.send(current_tid()).unwrap();
                let _ = wait.recv();
            });
            (stop, handle, tid.recv().unwrap().unwrap())
        });
        assert!(tids.contains(&tid), "{tid} not in {tids:?}");
        assert_ne!(Some(tid), current_tid());
        assert!(tids.windows(2).all(|w| w[0] < w[1]));
        drop(stop);
        handle.join().unwrap();
    }
}
