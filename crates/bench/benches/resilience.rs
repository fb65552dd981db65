//! Prints the resilience extension's overload counter table (see
//! `provlight_continuum::tables::resilience`): broker/client drop and
//! congestion counters for an overload run with end-to-end backpressure.
fn main() {
    let table = provlight_continuum::tables::resilience();
    println!("{}", table.render());
}
