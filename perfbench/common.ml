(* Shared pieces of the benchmark: clock, order statistics, the span
   recorder of the traced run, the environment stamp, peak memory, and
   the run/output directories inside the checkout. *)

(* Seconds on the monotonic clock, to the nanosecond: a warm serve
   round trip is tens of microseconds, too short for gettimeofday. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* -- order statistics ------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile (to 0.1) that leaves at least ten samples
   beyond it when [ops] samples are taken. Fixed per workload from its
   minimum op count, so every run reports the same percentile. *)
let tail_percentile ~ops =
  Float.floor (1000. *. (1. -. (10. /. float ops))) /. 10.

(* -- spans of the traced run ------------------------------------------ *)

(* One call into a layer, timed from the benchmark's side of the call.
   Spans of one op share [op]; [parent] is the enclosing span's id (-1
   at top level); [attrs] are counters the call returned. *)
type span = {
  id : int;
  parent : int;
  name : string;
  op : int;
  start : float;
  stop : float;
  attrs : (string * float) list;
}

module Trace = struct
  let on = ref false
  let recorded : span list ref = ref []
  let next_id = ref 0
  let current = ref (-1)

  (* [with_ ~op name f] runs [f] under a span when tracing is on;
     [attrs] turns the call's result into counters kept on the span. *)
  let with_ ?(attrs = fun _ -> []) ~op name f =
    if not !on then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = !current in
      current := id;
      let start = now () in
      let finish r =
        let stop = now () in
        current := parent;
        recorded := { id; parent; name; op; start; stop; attrs = r } :: !recorded
      in
      match f () with
      | v ->
        finish (attrs v);
        v
      | exception e ->
        finish [];
        raise e
    end

  let spans name = List.filter (fun s -> s.name = name) (List.rev !recorded)
  let durations name = List.map (fun s -> s.stop -. s.start) (spans name)

  let attr key s =
    match List.assoc_opt key s.attrs with Some v -> v | None -> nan

  let attrs name key = List.map (attr key) (spans name)
  let count () = List.length !recorded
end

(* -- environment -------------------------------------------------------- *)

(* Variables that change the program under test; the untraced run
   refuses to start while any is set. *)
let watched_env () =
  Array.to_list (Unix.environment ())
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | None -> None
         | Some i ->
           let k = String.sub kv 0 i in
           let v = String.sub kv (i + 1) (String.length kv - i - 1) in
           if
             List.mem k [ "LCL_OBS"; "LCL_DOMAINS"; "LCL_WORKERS" ]
             || String.starts_with ~prefix:"LCL_CLUSTER_" k
           then Some (k, v)
           else None)
  |> List.sort compare

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

(* The checked-out revision when the checkout carries its .git
   directory, else "none"; never looks above the checkout. *)
let git_rev () =
  match first_line (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match first_line (read_file (Filename.concat ".git" r)) with
    | rev -> rev
    | exception Sys_error _ -> (
      match read_file ".git/packed-refs" with
      | exception Sys_error _ -> "none"
      | packed ->
        String.split_on_char '\n' packed
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ rev; name ] when name = r -> Some rev
               | _ -> None)
        |> Option.value ~default:"none"))
  | rev -> rev

(* Digest of every library and executable source, so results taken
   from a checkout without .git still name the code they measured. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
           then [ p ]
           else [])
  in
  let all = files "lib" @ files "bin" in
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map (fun p -> p ^ Digest.file p) all)))

(* -- memory ------------------------------------------------------------- *)

(* Peak resident set (VmHWM) of [pid] in MB, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> nan
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun l ->
           if String.starts_with ~prefix:"VmHWM:" l then
             Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
           else None)
    |> Option.value ~default:nan

(* -- directories -------------------------------------------------------- *)

(* Socket and cache of a run live in a fresh directory under
   [run_root]; trace files are written to [out_root]. Both are relative
   to the checkout root (a relative socket path also keeps it under
   the sun_path length limit). *)
let run_root = ".perfbench-run"
let out_root = ".perfbench-out"

let mkdir_p d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let fresh_dir tag =
  mkdir_p run_root;
  let d =
    Filename.concat run_root (Printf.sprintf "%s-%d" tag (Unix.getpid ()))
  in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Unix.mkdir d 0o700;
  d

let remove_dir d =
  if Sys.file_exists d then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d);
    (try Unix.rmdir d with Unix.Unix_error _ -> ());
    try Unix.rmdir run_root with Unix.Unix_error _ -> ()
  end

(* Gc counters of one call, kept as span attributes. *)
let gc_delta f =
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  ( v,
    [
      ("minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
      ("major_collections", float (g1.Gc.major_collections - g0.Gc.major_collections));
    ] )
