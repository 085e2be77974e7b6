//! Host-noise and memory readings from `/proc` (Linux only).
//!
//! Clock ticks are converted at 100 per second, the `USER_HZ` every
//! mainstream Linux build uses.

const TICKS_PER_S: f64 = 100.0;

/// Machine-wide CPU steal time so far, in seconds: time the hypervisor
/// ran something else while this VM's vCPUs wanted to run.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            // cpu user nice system idle iowait irq softirq steal ...
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// The CPUs `/proc/stat` sums its machine-wide line over (at least 1).
pub fn cpus() -> usize {
    std::fs::read_to_string("/proc/stat")
        .map(|stat| {
            stat.lines()
                .filter(|l| {
                    l.strip_prefix("cpu")
                        .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
                })
                .count()
        })
        .unwrap_or(0)
        .max(1)
}

/// User plus system CPU time of process `pid` so far, in seconds.
pub fn cpu_s(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name start at
            // field 3 (state); utime and stime are fields 14 and 15.
            let rest = &stat[stat.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether process `pid` still exists (a zombie counts as ended).
pub fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat")).is_ok_and(|stat| {
        stat.rfind(')')
            .and_then(|i| stat[i + 1..].split_whitespace().next())
            .is_some_and(|state| state != "Z" && state != "X")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_is_visible() {
        let me = std::process::id();
        assert!(alive(me));
        assert!(peak_rss_mb(me) > 0.0);
        assert!(cpu_s(me) >= 0.0);
        assert!(steal_s() >= 0.0);
        assert!(cpus() >= 1);
        assert!(!alive(u32::MAX));
    }
}
