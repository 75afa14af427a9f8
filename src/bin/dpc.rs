//! The `dpc` operator CLI. All logic lives in [`dpc::cli`]; this wrapper
//! only handles process I/O and exit codes.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dpc::cli::run(&args) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
