//! Print the paper's tables and figures: `figures list`, `figures <name>`
//! or `figures all`. `--quick` runs fig14 and fig15 at reduced scale;
//! `--full` runs fig15 at the paper's 100 MiB per host.

use flare_bench::{Figure, Scale, FIGURES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |f: &str| args.iter().any(|a| a == f);
    let scale = match (flag("--full"), flag("--quick")) {
        (true, _) => Scale::Full,
        (_, true) => Scale::Quick,
        _ => Scale::Default,
    };
    let name = args.iter().find(|a| !a.starts_with("--"));
    let name = name.map_or("", String::as_str);
    if name == "list" {
        for f in FIGURES {
            println!("{:<9} {}", f.name, f.about);
        }
        return;
    }
    let wanted = FIGURES.iter().filter(|f| name == "all" || name == f.name);
    let wanted: Vec<&Figure> = wanted.collect();
    if wanted.is_empty() {
        eprintln!("usage: figures list | all | <name> [--quick] [--full]");
        std::process::exit(2);
    }
    for figure in wanted {
        (figure.print)(scale);
    }
}
