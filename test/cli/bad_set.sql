create table t (a int);
insert into t values (1);
set wibble = 3;
select a from t;
