(* serve-mix: a forked [Serve.Daemon.serve] (2 workers, fresh cache)
   and one client holding one connection in a closed loop. Blocks of
   100 requests: 98 hits drawn from a warm set computed cold during
   set-up, and one cold Simulate and one cold Faultsim at fixed
   positions. Hits load Serve.Protocol, the daemon loop and
   Util.Diskcache (p50); cold requests add Serve.Engine, Local.Runner
   and the per-call worker forks (tail and throughput). *)

open Common
module P = Serve.Protocol

let sim_n = 1 lsl 14
let gap_iterations = 2
let gap_labels = 200
let warm_sims = 8

(* Set-ups per run, and the fewest timed blocks, which fixes the tail
   percentile away from the 98th, where hits and cold requests meet. *)
let setups = 3
let block = 100
let min_blocks = 40
let cold_sim_at = 33
let cold_fault_at = 66

(* In-process engine calls per worker count in the traced run. *)
let engine_pairs = 4

(* Distinct per (workload seed, kind, index): kind 0 = warm set,
   1 = timed cold requests, 2 = in-process engine calls. No cold key
   repeats within a run or collides with the warm set. *)
let seed_of ~seed ~kind i = ((seed land 0xfffff) lsl 21) lor (kind lsl 19) lor i

let simulate s = P.Simulate { algo = "cv-coloring"; n = sim_n; seed = s }

let faultsim s =
  P.Faultsim
    {
      algo = "cv-coloring";
      n = sim_n;
      seed = s;
      fault_seed = s;
      crash = 0.01;
      sever = 0.01;
      retries = 2;
    }

let warm_set ~seed =
  let zoo = List.map fst Serve.Zoo_table.all in
  Array.of_list
    (List.map (fun problem -> P.Classify { problem }) zoo
    @ List.map
        (fun problem ->
          P.Gap { problem; iterations = gap_iterations; max_labels = gap_labels })
        zoo
    @ List.init warm_sims (fun i -> simulate (seed_of ~seed ~kind:0 i))
    @ List.init warm_sims (fun i ->
          faultsim (seed_of ~seed ~kind:0 (warm_sims + i))))

(* Hit variants: every warm request, plus each Classify again with the
   problem as Lcl.Parse source text (same cache entry, but the daemon
   parses to fingerprint it) — half of the warm Classify requests.
   Each variant is paired with the index of its warm request. *)
let variants warm =
  let src = function
    | P.Classify { problem } -> (
      match Serve.Zoo_table.find problem with
      | Some p -> Some (P.Classify { problem = Lcl.Parse.to_string p })
      | None -> None)
    | _ -> None
  in
  Array.of_list
    (List.concat
       (List.mapi
          (fun i req ->
            (req, i) :: (match src req with Some r -> [ (r, i) ] | None -> []))
          (Array.to_list warm)))

let is_src = function
  | P.Classify { problem } -> Serve.Zoo_table.find problem = None
  | _ -> false

(* Request kind kept on the traced run's spans: 0 Classify by name,
   1 Classify by source text, 2 Gap, 3 Simulate, 4 Faultsim. *)
let kind = function
  | P.Classify _ as r -> if is_src r then 1 else 0
  | P.Gap _ -> 2
  | P.Simulate _ -> 3
  | _ -> 4

(* Correctness of an answer computed cold. *)
let cold_ok req text =
  match req with
  | P.Simulate _ -> String.ends_with ~suffix:"violations 0\n" text
  | P.Faultsim _ -> (
    match Fault.Json.of_string text with
    | j ->
      Fault.Json.member "errored" j = Some (Fault.Json.Int 0)
      && Fault.Json.member "healthy_violations" j = Some (Fault.Json.Int 0)
    | exception Fault.Json.Parse_error _ -> false)
  | _ -> true

(* -- the daemon process ------------------------------------------------- *)

type daemon = { pid : int; dir : string; fd : Unix.file_descr }

let call fd req =
  P.write_request fd req;
  match P.read_response fd with
  | Some r -> r
  | None -> failwith "serve-mix: daemon closed the connection"

let answer_text = function P.Answer t -> Some t | _ -> None

(* Forked before this process ever creates a domain (it never does), so
   the daemon and its per-call workers really fork. Ready is signalled
   over a pipe; the daemon stops on Shutdown, SIGTERM, or when this
   process is gone. The daemon comes back even when it failed to come
   up, so the caller can stop and reap it. *)
let start_daemon tag =
  if not (Util.Cluster.can_fork ()) then
    failwith "serve-mix: this process cannot fork";
  let dir = fresh_dir tag in
  let socket_path = Filename.concat dir "s.sock" in
  let cache_path = Filename.concat dir "c.cache" in
  let r, w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      try
        let parent = Unix.getppid () in
        let stop = ref false in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
        Sys.set_signal Sys.sigint Sys.Signal_ignore;
        ignore
          (Serve.Daemon.serve ~socket_path ~cache_path ~workers:2
             ~should_stop:(fun () -> !stop || Unix.getppid () <> parent)
             ~on_ready:(fun () ->
               ignore (Unix.write_substring w "r" 0 1);
               Unix.close w)
             ());
        0
      with e ->
        prerr_endline ("serve-mix daemon: " ^ Printexc.to_string e);
        2
    in
    Unix._exit code
  | pid ->
    Unix.close w;
    let ready =
      match Unix.select [ r ] [] [] 60. with
      | [ _ ], _, _ -> Unix.read r (Bytes.create 1) 0 1 = 1
      | _ -> false
    in
    Unix.close r;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let d = { pid; dir; fd } in
    if not ready then (d, Error "daemon did not come up")
    else
      match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
      | () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
        (d, Ok ())
      | exception Unix.Unix_error (e, _, _) -> (d, Error (Unix.error_message e))

let rec reap pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
    if now () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    end
    else begin
      Unix.sleepf 0.01;
      reap pid deadline
    end
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid deadline
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let stop_daemon d =
  (try ignore (call d.fd P.Shutdown) with _ -> ());
  (try Unix.close d.fd with Unix.Unix_error _ -> ());
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap d.pid (now () +. 10.);
  remove_dir d.dir

let daemon_stats fd =
  match answer_text (call fd P.Stats) with
  | None -> failwith "serve-mix: Stats was not answered"
  | Some t ->
    let j = Fault.Json.of_string t in
    fun key -> float (Fault.Json.get_int ~ctx:key (Fault.Json.field key j))

(* -- layers measured in-process (traced run) ---------------------------- *)

(* One span per batch of [reps] identical calls; the per-call time is
   the span's duration over its calls. *)
let batch ?(attrs = []) ~op name ~reps f =
  Trace.with_ ~op name
    ~attrs:(fun () -> ("calls", float reps) :: attrs)
    (fun () ->
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (f ()))
      done)

(* Median per-call time of a batched layer, in microseconds; [kinds]
   keeps only batches of those request kinds. *)
let per_call_us ?kinds name =
  Trace.spans name
  |> List.filter (fun s ->
         match kinds with
         | None -> true
         | Some ks -> List.mem (Trace.attr "kind" s) ks)
  |> List.map (fun s -> 1e6 *. (s.stop -. s.start) /. Trace.attr "calls" s)
  |> median

let payload_of_frame frame =
  let d = Util.Framing.decoder () in
  Util.Framing.feed d frame ~pos:0 ~len:(String.length frame);
  Option.get (Util.Framing.next d)

let measure_protocol ~dir variants texts =
  let reps = 200 in
  Array.iteri
    (fun i (req, _) ->
      let frame = P.encode_request req in
      let payload = payload_of_frame frame in
      batch ~op:i "protocol.encode" ~reps (fun () -> P.encode_request req);
      batch ~op:i "protocol.decode" ~reps (fun () -> P.envelope_of_payload payload);
      batch ~op:i "protocol.fingerprint" ~reps
        ~attrs:[ ("kind", float (kind req)) ]
        (fun () -> P.fingerprint req))
    variants;
  let cache = Util.Diskcache.open_ (Filename.concat dir "find.cache") in
  let keys =
    Array.to_list variants
    |> List.filter_map (fun (req, w) ->
           Option.map (fun k -> (k, texts.(w))) (P.fingerprint req))
    |> List.sort_uniq compare
  in
  List.iter (fun (k, v) -> Util.Diskcache.add cache k v) keys;
  List.iteri
    (fun i (k, _) ->
      batch ~op:i "diskcache.find" ~reps (fun () -> Util.Diskcache.find cache k))
    keys;
  Util.Diskcache.close cache

(* [Serve.Engine.answer] on fresh cold requests at 1 and 2 workers; the
   gap between the two is the cost of forking workers per call. *)
let measure_engine ~check ~seed =
  for j = 0 to engine_pairs - 1 do
    List.iter
      (fun req ->
        let at workers =
          if workers > 1 then check (Util.Cluster.can_fork ());
          Trace.with_ ~op:j "engine.answer"
            ~attrs:(fun _ -> [ ("workers", float workers) ])
            (fun () -> Serve.Engine.answer ~workers req)
        in
        let t1 = answer_text (at 1) and t2 = answer_text (at 2) in
        check
          (t1 <> None && t1 = t2 && cold_ok req (Option.get t1)))
      [
        simulate (seed_of ~seed ~kind:2 (2 * j));
        faultsim (seed_of ~seed ~kind:2 ((2 * j) + 1));
      ]
  done

let engine_ms workers =
  (* mean of each pair's Simulate and Faultsim, median over pairs *)
  let spans =
    List.filter
      (fun s -> Trace.attr "workers" s = float workers)
      (Trace.spans "engine.answer")
  in
  median
    (List.init engine_pairs (fun j ->
         let ds =
           List.filter_map
             (fun s -> if s.op = j then Some (s.stop -. s.start) else None)
             spans
         in
         1e3 *. List.fold_left ( +. ) 0. ds /. float (List.length ds)))

(* -- the workload ------------------------------------------------------- *)

let run ~check ~corrupt ~seed ~seconds =
  let warm = warm_set ~seed in
  let variants = variants warm in
  let live = ref [] in
  let stop d =
    live := List.filter (fun x -> x != d) !live;
    stop_daemon d
  in
  Fun.protect ~finally:(fun () -> List.iter stop_daemon !live) @@ fun () ->
  (* one set-up: fork a daemon on a fresh cache, compute the warm set
     cold, then one untimed warm pass over every hit variant *)
  let setup k =
    let t0 = now () in
    let d, up = start_daemon (Printf.sprintf "serve-%d" k) in
    live := d :: !live;
    (match up with Ok () -> () | Error m -> failwith ("serve-mix: " ^ m));
    (match answer_text (call d.fd P.Health) with
    | Some h ->
      let j = Fault.Json.of_string h in
      check
        (Fault.Json.member "can_fork" j = Some (Fault.Json.Bool true)
        && Fault.Json.member "workers" j = Some (Fault.Json.Int 2))
    | None -> check false);
    let texts =
      Array.map
        (fun req ->
          match answer_text (call d.fd req) with
          | Some t ->
            check (cold_ok req t);
            t
          | None ->
            check false;
            "")
        warm
    in
    Array.iter
      (fun (req, w) -> check (answer_text (call d.fd req) = Some texts.(w)))
      variants;
    (d, texts, now () -. t0)
  in
  let built =
    List.init setups (fun k ->
        let ((d, _, _) as s) = setup k in
        if k < setups - 1 then stop d;
        s)
  in
  let d, texts, _ = List.nth built (setups - 1) in
  if corrupt then texts.(0) <- texts.(0) ^ " ";
  let rng = Util.Prng.create ~seed in
  let before = daemon_stats d.fd in
  let warm_lat = ref [] and all_lat = ref [] in
  let untraced_warm = ref [] and traced_warm = ref [] in
  let cold = ref 0 in
  let request ~traced ~op req check_text =
    let resp, l =
      time (fun () ->
          if traced then
            Trace.with_ ~op "client.request"
              ~attrs:(fun _ -> [ ("kind", float (kind req)) ])
              (fun () -> call d.fd req)
          else call d.fd req)
    in
    check (match answer_text resp with Some t -> check_text t | None -> false);
    l
  in
  let op b =
    let traced = Report.traced_op b in
    let block_warm = ref [] in
    for pos = 0 to block - 1 do
      let op = (b * block) + pos in
      if pos = cold_sim_at || pos = cold_fault_at then begin
        let s = seed_of ~seed ~kind:1 !cold in
        incr cold;
        let req = if pos = cold_sim_at then simulate s else faultsim s in
        let l = request ~traced ~op req (cold_ok req) in
        if traced = !Trace.on then all_lat := l :: !all_lat
      end
      else begin
        let req, w = variants.(Util.Prng.int rng (Array.length variants)) in
        let l = request ~traced ~op req (String.equal texts.(w)) in
        if traced = !Trace.on then begin
          all_lat := l :: !all_lat;
          warm_lat := l :: !warm_lat
        end;
        block_warm := l :: !block_warm
      end
    done;
    let m = median !block_warm in
    if traced then traced_warm := m :: !traced_warm
    else untraced_warm := m :: !untraced_warm
  in
  let blocks, timed_s = Report.timed_loop ~seconds ~min_ops:min_blocks ~min_traced:10 ~first:0 op in
  let after = daemon_stats d.fd in
  let delta key = after key -. before key in
  List.iter (fun k -> check (delta k = 0.)) [ "shed"; "degraded"; "failed" ];
  let daemon_rss = peak_rss_mb (string_of_int d.pid) in
  if !Trace.on then begin
    measure_protocol ~dir:d.dir variants texts;
    measure_engine ~check ~seed
  end;
  stop d;
  let hits = delta "cache_hits" and misses = delta "cache_misses" in
  let loop_us =
    (1e6 *. median !warm_lat)
    -. per_call_us "protocol.encode" -. per_call_us "protocol.decode"
    -. per_call_us "protocol.fingerprint" -. per_call_us "diskcache.find"
  in
  {
    Report.setups = List.map (fun (_, _, s) -> s) built;
    lat = List.rev !all_lat;
    work = float (blocks * block);
    timed_s;
    tail_pct = tail_percentile ~ops:(min_blocks * block);
    peak_rss_mb = peak_rss_mb "self";
    layers =
      [
        ("protocol.encode_us", per_call_us "protocol.encode");
        ("protocol.decode_us", per_call_us "protocol.decode");
        ( "protocol.fingerprint_name_us",
          per_call_us ~kinds:[ 0. ] "protocol.fingerprint" );
        ( "protocol.fingerprint_src_us",
          per_call_us ~kinds:[ 1. ] "protocol.fingerprint" );
        ("diskcache.find_us", per_call_us "diskcache.find");
        ("daemon.loop_us", loop_us);
        ("engine.cold_w1_ms", engine_ms 1);
        ("engine.cold_w2_ms", engine_ms 2);
        ("daemon.hits", hits);
        ("daemon.misses", misses);
        ("daemon.hit_ratio", hits /. (hits +. misses));
        ("daemon.shed", delta "shed");
        ("daemon.degraded", delta "degraded");
        ("daemon.failed", delta "failed");
        ("daemon.peak_rss_mb", daemon_rss);
        ( "trace.overhead_pct",
          Report.overhead ~untraced:!untraced_warm ~traced:!traced_warm );
      ];
    info =
      [
        ("requests", string_of_int (blocks * block));
        ("warm_variants", string_of_int (Array.length variants));
        ("daemon_peak_rss_mb", Printf.sprintf "%.3f" daemon_rss);
      ];
  }
