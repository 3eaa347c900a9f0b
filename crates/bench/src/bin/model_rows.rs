//! Prints the model's numbers, one `name value unit` row each. Its output is
//! the committed `crates/bench/model_rows.txt` (see `dsmpm2_bench::model_rows`).

fn main() {
    for row in dsmpm2_bench::model_rows() {
        println!("{row}");
    }
}
