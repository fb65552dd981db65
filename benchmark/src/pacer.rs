//! The open-loop schedule.
//!
//! Every device captures on a fixed period from a seeded phase. Due times
//! are fixed before the run and never rebased on the clock: when a capture
//! call stalls, the tasks that fell due meanwhile are issued late, back to
//! back, and each is timed from when it was *due* — so a stall is charged
//! to every task it delayed instead of silently thinning the load, as a
//! closed loop would.

use std::time::Duration;

/// One task of the merged schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Due {
    /// Index of the device that captures this task.
    pub device: usize,
    /// The task's sequence number on that device, from 0.
    pub seq: u64,
    /// When the task is due, measured from the start of the run.
    pub at: Duration,
}

/// Merges the per-device schedules in due order (ties go to the lower
/// device index) until `end`.
pub struct Pacer {
    period: Duration,
    end: Duration,
    /// Next (due time, sequence number) per device.
    next: Vec<(Duration, u64)>,
}

impl Pacer {
    /// A schedule of one task per `period` per device, device `d` starting
    /// at `phases[d]`, covering `[0, end)`.
    pub fn new(period: Duration, phases: &[Duration], end: Duration) -> Pacer {
        Pacer {
            period,
            end,
            next: phases.iter().map(|&p| (p, 0)).collect(),
        }
    }
}

impl Iterator for Pacer {
    type Item = Due;

    fn next(&mut self) -> Option<Due> {
        let (device, &(at, seq)) = self
            .next
            .iter()
            .enumerate()
            .min_by_key(|(_, (at, _))| *at)?;
        if at >= self.end {
            return None;
        }
        self.next[device] = (at + self.period, seq + 1);
        Some(Due { device, seq, at })
    }
}

/// How long the generator may sleep before a task due at `due` when the
/// clock reads `now`; `None` once the task is due or overdue.
pub fn sleep_before(due: Duration, now: Duration) -> Option<Duration> {
    due.checked_sub(now).filter(|d| !d.is_zero())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn merges_devices_in_due_order() {
        let pacer = Pacer::new(10 * MS, &[3 * MS, MS], 25 * MS);
        let order: Vec<(usize, u64, u64)> = pacer
            .map(|d| (d.device, d.seq, d.at.as_millis() as u64))
            .collect();
        assert_eq!(
            order,
            vec![
                (1, 0, 1),
                (0, 0, 3),
                (1, 1, 11),
                (0, 1, 13),
                (1, 2, 21),
                (0, 2, 23)
            ]
        );
    }

    #[test]
    fn a_stall_is_charged_to_the_tasks_it_delayed() {
        // One device, 1 ms period; every call takes 0.1 ms except task 3,
        // which stalls for 5 ms.
        let mut now = Duration::ZERO;
        let mut lateness = Vec::new();
        for due in Pacer::new(MS, &[Duration::ZERO], 12 * MS) {
            if let Some(sleep) = sleep_before(due.at, now) {
                now += sleep;
            }
            lateness.push((now - due.at).as_micros() as u64);
            now += if due.seq == 3 { 5 * MS } else { MS / 10 };
        }
        // No task is shed and no due time moves: 12 tasks were issued.
        assert_eq!(lateness.len(), 12);
        // Tasks 0..=3 start on time; 4..=8 fell due during the stall and
        // start late by the backlog still ahead of them; the loop catches
        // up one period at a time and is back on schedule by task 9.
        assert_eq!(&lateness[..4], &[0, 0, 0, 0]);
        assert_eq!(&lateness[4..9], &[4000, 3100, 2200, 1300, 400]);
        assert_eq!(&lateness[9..], &[0, 0, 0]);
    }

    #[test]
    fn sleep_before_is_none_when_due_or_late() {
        assert_eq!(sleep_before(5 * MS, 2 * MS), Some(3 * MS));
        assert_eq!(sleep_before(5 * MS, 5 * MS), None);
        assert_eq!(sleep_before(5 * MS, 9 * MS), None);
    }
}
